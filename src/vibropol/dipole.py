"""Coordinate-dependent transition dipole and energy-resolved orientation.

The dipole is expanded to first order in the mode displacements:

    mu(q) = mu0 * u(psi0) + sum_k g_k q_k dQ_k u(alpha_k)

with u(a) the in-plane unit vector of axis angle a.  Emission at a given
photon energy mixes vibronic channels incoherently (Stokes-vector
addition); each channel carries the dipole axis of its characteristic
displaced geometry.  Stokes replicas sample q_k = -sqrt(n), anti-Stokes
replicas +sqrt(n) with a fixed amplification factor of 2 (thermally
populated initial levels sample larger displacements).  The acoustic
wing is a pseudo-channel whose displacement grows as sqrt(delta/cutoff),
scaled by a thermal amplification that vanishes as T -> 0 and whose
rotation sense follows the sign of the strain bias.

The channel sum visits, for each block of grid energies, only the lines
within a reach R of the block: beyond R the Gaussian ZPL profile and the
acoustic wing w_s R / c^2 e^{-R/c} of every line are below a pointwise
bound that keeps the total left-out weight under TAIL_FRACTION of the
low-signal threshold (see ``orientation_vs_energy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (EmitterModel, EnergyGrid, NumericalError, OrientationCurve,
                   ValidationError, wrap_orientation, wrap_orientation_scalar)
from .vibronic import (acoustic_wing_density, bose_occupation,
                       _acoustic_kernel_weights, lineshape_density,
                       mode_line_weights)

# anti-Stokes channels sample displacement sqrt(n) * (1 + this factor)
ANTI_STOKES_AMPLIFICATION = 1.0

# a grid point is invalid when its intensity is below this fraction of peak
LOW_SIGNAL_FRACTION = 1e-6

# line tails left out of the orientation sum add at most this fraction of
# the low-signal threshold at any grid point
TAIL_FRACTION = 1e-12

# largest line x grid-point block the orientation sum holds at once
_ELEMENT_CAP = 4_000_000


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
    if model.temperature == 0:
        return 0.0
    n = bose_occupation(model.acoustic_cutoff, model.temperature)
    return float(np.sqrt(2.0 * n + 1.0) - 1.0)


def dipole_at_displacement(model: EmitterModel, q) -> tuple:
    """Dipole axis angle (deg) and magnitude at mode displacements q.

    q_k is in units of that mode's partial displacement dQ_k, so q_k = 1
    is the one-phonon-projected geometry.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (len(model.modes),):
        raise ValidationError(
            f"q must have one entry per mode ({len(model.modes)})")
    psi0 = np.deg2rad(model.equilibrium_angle)
    vec = model.equilibrium_dipole * np.array([np.cos(psi0), np.sin(psi0)])
    for mode, qk in zip(model.modes, q):
        a = np.deg2rad(mode.grad_direction)
        vec = vec + (mode.grad_magnitude * qk * mode.partial_dq
                     * np.array([np.cos(a), np.sin(a)]))
    mag = float(np.hypot(vec[0], vec[1]))
    if mag < 1e-12 * model.equilibrium_dipole:
        raise NumericalError(
            "transition dipole cancels at this displacement; axis undefined")
    angle = wrap_orientation_scalar(np.rad2deg(np.arctan2(vec[1], vec[0])))
    return angle, mag


def mode_rotations(model: EmitterModel) -> list:
    """Per-mode dipole rotation at the one-phonon displaced geometry."""
    out = []
    for k, mode in enumerate(model.modes):
        q = np.zeros(len(model.modes))
        q[k] = 1.0
        angle, _ = dipole_at_displacement(model, q)
        delta = wrap_orientation_scalar(angle - model.equilibrium_angle)
        out.append(ModeRotation(k, mode.energy_mev, delta))
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

    Each alpha_k moves toward its mirror about the equilibrium axis
    (which flips the sign of the mode's rotation while preserving its
    magnitude) with blend weight |strain_bias|; the sign of the bias
    selects the shared sense.  bias = 0 is the identity.

    grad_direction stores the gradient vector on the right half-plane
    branch [-90, 90).  When the blended direction leaves that branch the
    wrapped axis points the opposite way, so the gradient magnitude is
    re-solved to keep the intended one-phonon rotation exact.
    """
    b = model.strain_bias
    if b == 0.0 or not model.modes:
        return model
    sense = 1.0 if b > 0 else -1.0
    rotations = mode_rotations(model)
    psi0 = model.equilibrium_angle
    new_modes = []
    for mode, rot in zip(model.modes, rotations):
        if rot.delta_theta * sense >= 0 or mode.grad_magnitude == 0:
            new_modes.append(mode)
            continue
        # step toward the mirror in vector space (period 360), so the
        # blend path is the true rotation of the gradient vector
        mirrored = 2.0 * psi0 - mode.grad_direction
        step = (mirrored - mode.grad_direction + 180.0) % 360.0 - 180.0
        raw = mode.grad_direction + abs(b) * step      # unwrapped vector angle
        alpha = wrap_orientation_scalar(raw)
        if abs(raw - alpha) < 1e-9:
            new_modes.append(replace(mode, grad_direction=alpha))
            continue
        # wrapping flipped the vector sense: recover the rotation the
        # unwrapped direction would have produced, then re-solve g
        rel = np.deg2rad(raw - psi0)
        gq = mode.grad_magnitude * mode.partial_dq
        target = np.rad2deg(np.arctan2(
            gq * np.sin(rel), model.equilibrium_dipole + gq * np.cos(rel)))
        g = solve_gradient_for_rotation(
            target, alpha, psi0, model.equilibrium_dipole, mode.partial_dq)
        new_modes.append(replace(mode, grad_direction=alpha, grad_magnitude=g))
    return replace(model, modes=tuple(new_modes))


def _profile_density(delta_mev, linewidth_mev, profile):
    """ZPL line profile density (1/meV) at shift delta from the line."""
    d = np.asarray(delta_mev, dtype=float)
    if profile == "lorentzian":
        g = 0.5 * linewidth_mev
        return g / np.pi / (d * d + g * g)
    sig = linewidth_mev / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return np.exp(-0.5 * (d / sig) ** 2) / (sig * np.sqrt(2.0 * np.pi))


def _enumerate_lines(model: EmitterModel, cutoff: float = 1e-9):
    """Vibronic lines: positions (meV below ZPL), weights, channel axes.

    Returns (shift, weight, cos2psi, sin2psi) arrays, one entry per
    multi-mode replica with weight above the cutoff.
    """
    psi0 = np.deg2rad(model.equilibrium_angle)
    base = model.equilibrium_dipole * np.array([np.cos(psi0), np.sin(psi0)])

    shifts = np.array([0.0])
    weights = np.array([1.0])
    vx = np.array([base[0]])
    vy = np.array([base[1]])
    for mode in model.modes:
        ms, ws = mode_line_weights(mode, model.temperature, 40)
        # channel displacement per net quanta: Stokes -sqrt(m),
        # anti-Stokes +sqrt(|m|) amplified
        qs = np.where(ms >= 0, -np.sqrt(np.abs(ms)),
                      (1.0 + ANTI_STOKES_AMPLIFICATION) * np.sqrt(np.abs(ms)))
        a = np.deg2rad(mode.grad_direction)
        gx = mode.grad_magnitude * mode.partial_dq * np.cos(a)
        gy = mode.grad_magnitude * mode.partial_dq * np.sin(a)
        shifts = (shifts[:, None] + ms[None, :] * mode.energy_mev).ravel()
        weights = (weights[:, None] * ws[None, :]).ravel()
        vx = (vx[:, None] + qs[None, :] * gx).ravel()
        vy = (vy[:, None] + qs[None, :] * gy).ravel()
        keep = weights > cutoff
        shifts, weights, vx, vy = (shifts[keep], weights[keep],
                                   vx[keep], vy[keep])
        if shifts.size > 400000:
            raise NumericalError("vibronic line enumeration exploded")
    if shifts.size == 0:
        raise NumericalError("no vibronic line above the weight cutoff")
    return shifts, weights, vx, vy


def _axis_cos_sin(x, y):
    """(cos 2a, sin 2a) of the axis through (x, y); (0, 0) at the origin."""
    r2 = x * x + y * y
    inv = np.where(r2 > 0, 1.0 / np.where(r2 > 0, r2, 1.0), 0.0)
    return (x * x - y * y) * inv, 2.0 * x * y * inv


def _line_reach(model: EmitterModel, budget: float) -> tuple:
    """(sharp, wing) reach in meV of one line of unit weight.

    Beyond the sharp reach the ZPL profile, and beyond the wing reach the
    acoustic wing, is at most ``budget`` (1/meV) at every detuning.  The
    Lorentzian tail is algebraic, so its sharp reach is infinite.
    """
    if not budget > 0:
        return np.inf, np.inf
    reach_s = np.inf
    if model.zpl_profile == "gaussian":
        sig = model.zpl_linewidth / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        ratio = budget * sig * np.sqrt(2.0 * np.pi)
        reach_s = sig * np.sqrt(-2.0 * np.log(ratio)) if ratio < 1 else 0.0
    reach_w = 0.0
    if model.acoustic_coupling > 0:
        # w_s x e^{-x} / c = budget with x = R / c on the falling side x >= 1
        c = model.acoustic_cutoff
        reach_w = c * _falling_root(budget * c / model.acoustic_coupling)
    return reach_s, reach_w


def _falling_root(a: float) -> float:
    """x >= 1 with x e^{-x} = a (1 where a >= 1/e, inf where a = 0).

    Newton on the convex f(x) = x - ln x - L, L = ln(1/a), started above
    the root at 1 + L + ln L, falls to it; the result is then raised by the
    rounding error of f over f'(x), so the reach it sets is never short."""
    if not 0 < a < math.exp(-1.0):
        return 1.0 if a > 0 else math.inf
    big = -math.log(a)
    x = 1.0 + big + math.log(big)
    for _ in range(100):
        step = x * (x - math.log(x) - big) / (x - 1.0)
        if not step > 1e-16 * x:
            break
        x -= step
    return x * (1.0 + 2e-15 * x / max(x - 1.0, 1e-8))


def _tail_bound(model: EmitterModel, reach_s: float, reach_w: float) -> float:
    """Largest density (1/meV) one line of unit weight adds beyond both
    reaches: the profile at the sharp reach plus the Stokes wing at the
    wing reach (the anti-Stokes wing carries an extra e^{-|d|/kT})."""
    bound = 0.0
    if np.isfinite(reach_s):
        bound += float(_profile_density(reach_s, model.zpl_linewidth,
                                        model.zpl_profile))
    if model.acoustic_coupling > 0 and np.isfinite(reach_w):
        c = model.acoustic_cutoff
        bound += model.acoustic_coupling * reach_w / (c * c) * np.exp(-reach_w / c)
    return bound


def _jitter_dolp(model: EmitterModel) -> float:
    """Per-channel DOLP ceiling from thermal orientation wobble."""
    sigma_jit = (model.acoustic_gradient * model.orientation_jitter
                 * thermal_amplification(model) / model.equilibrium_dipole)
    return float(np.exp(-2.0 * np.square(sigma_jit)))


def _channel_sums(model: EmitterModel, shift_e, shifts, coef, bx, by,
                  reach_s: float, reach_w: float) -> np.ndarray:
    """(s0, s1, s2) at shifts ``shift_e`` (meV below ZPL, descending).

    Lines are sorted by ``shifts``; ``coef`` holds their sharp-channel
    Stokes coefficients (w, w cos2psi, w sin2psi) x jitter / knorm, and
    (bx, by) their dipoles.  The grid is walked in blocks; per block only
    the lines within the sharp (wing) reach of it enter the sharp (wing)
    sum.  A block holds at most _ELEMENT_CAP line x point pairs.
    """
    jitter_dolp = _jitter_dolp(model)
    amp = thermal_amplification(model)
    sense = np.sign(model.strain_bias)
    a_ac = np.deg2rad(model.acoustic_direction)
    gx = model.acoustic_gradient * np.cos(a_ac)
    gy = model.acoustic_gradient * np.sin(a_ac)

    n_e = shift_e.size
    out = np.zeros((3, n_e))
    step = max(1, _ELEMENT_CAP // max(shifts.size, 1))
    for i0 in range(0, n_e, step):
        blk = shift_e[i0:i0 + step]
        lo, hi = blk[-1], blk[0]
        acc = out[:, i0:i0 + step]

        # sharp replica part of each channel
        a = np.searchsorted(shifts, lo - reach_s, side="left")
        b = np.searchsorted(shifts, hi + reach_s, side="right")
        delta = blk[None, :] - shifts[a:b, None]     # >0: Stokes side of line
        acc += coef[:, a:b] @ _profile_density(delta, model.zpl_linewidth,
                                               model.zpl_profile)

        # acoustic pseudo-channel dressing each line
        if model.acoustic_coupling > 0:
            a = np.searchsorted(shifts, lo - reach_w, side="left")
            b = np.searchsorted(shifts, hi + reach_w, side="right")
            delta = blk[None, :] - shifts[a:b, None]
            wing_i = coef[0, a:b, None] * acoustic_wing_density(model, delta)
            q_ac = np.sqrt(np.abs(delta) / model.acoustic_cutoff) * amp * sense
            q_ac = np.where(delta >= 0, -q_ac,
                            (1.0 + ANTI_STOKES_AMPLIFICATION) * q_ac)
            c2, sn2 = _axis_cos_sin(bx[a:b, None] + gx * q_ac,
                                    by[a:b, None] + gy * q_ac)
            acc[0] += wing_i.sum(axis=0)
            acc[1] += (wing_i * c2).sum(axis=0) * jitter_dolp
            acc[2] += (wing_i * sn2).sum(axis=0) * jitter_dolp
    return out


def _stokes_sums(model: EmitterModel, grid: EnergyGrid) -> np.ndarray:
    """Channel-summed (s0, s1, s2) of the biased model on the grid.

    Only lines within a reach R of each energy block are summed; the
    reach and its bound are described in ``orientation_vs_energy``.
    """
    shifts, weights, vx, vy = _enumerate_lines(model)
    order = np.argsort(shifts, kind="stable")
    shifts, weights, vx, vy = (shifts[order], weights[order], vx[order],
                               vy[order])

    jitter_dolp = _jitter_dolp(model)
    _, _, knorm = _acoustic_kernel_weights(model)
    c2, sn2 = _axis_cos_sin(vx, vy)
    coef = np.stack([weights, weights * c2 * jitter_dolp,
                     weights * sn2 * jitter_dolp]) / knorm

    shift_e = (model.zpl_energy - grid.points) * 1e3      # meV below ZPL
    # lower bound on the peak of s0: each line's sharp part at its
    # nearest grid point (every term of the sum is >= 0)
    asc = shift_e[::-1]
    k = np.clip(np.searchsorted(asc, shifts), 1, asc.size - 1)
    near = np.minimum(np.abs(shifts - asc[k - 1]), np.abs(shifts - asc[k]))
    floor = float(np.max(weights * _profile_density(
        near, model.zpl_linewidth, model.zpl_profile))) / knorm

    total = float(weights.sum())
    tol = TAIL_FRACTION * LOW_SIGNAL_FRACTION
    # the sharp and wing tails get a quarter of the budget each; the other
    # half absorbs rounding in the reach and in the sum
    reach_s, reach_w = _line_reach(model, tol * floor * knorm / (4.0 * total))
    s = _channel_sums(model, shift_e, shifts, coef, vx, vy, reach_s, reach_w)
    dropped = total * _tail_bound(model, reach_s, reach_w) / knorm
    if dropped > tol * s[0].max():
        s = _channel_sums(model, shift_e, shifts, coef, vx, vy, np.inf, np.inf)
    return s


def orientation_vs_energy(model: EmitterModel, grid: EnergyGrid,
                          ) -> OrientationCurve:
    """Orientation angle and DOLP across the vibronic manifold.

    The lineshape is decomposed into channels (multi-mode replicas plus
    the acoustic pseudo-channel dressing each replica); channel Stokes
    vectors are summed at each photon energy and converted back to
    (psi, DOLP).  Points where the channel s0 is below the low-signal
    threshold are invalid.  The curve's ``weight`` is the emission
    intensity itself, the generating-function ``lineshape_density``;
    the channels set only the polarization.

    Only the lines within a reach of each energy block are summed.  The
    ZPL profile p(d) and the acoustic wing rho(d) of a line both fall
    monotonically with |d| (the wing beyond its maximum at |d| = c), so a
    line of weight w farther than the reach from a grid point adds at most
    w t / knorm to s0 there, with the pointwise tail bound

        t = p(R_sharp) + w_s R_wing / c^2 e^{-R_wing / c}

    (w_s, c: acoustic coupling and cutoff; the anti-Stokes wing carries an
    extra e^{-|d|/kT} <= 1).  The Lorentzian tail is algebraic, so its
    sharp reach is infinite and only the wing is banded.  Terms of s1 and
    s2 are no larger in magnitude than those of s0.  The reaches are the smallest with
    W t / knorm <= TAIL_FRACTION x LOW_SIGNAL_FRACTION x F / 2, W the total
    line weight and F a lower bound on the peak of s0 (the largest sharp
    term of one line at its nearest grid point).  After the sum the bound
    is checked against the actual peak of s0; if it fails, the sum is
    redone with every line, so no weight is dropped beyond the bound.
    """
    s0, s1, s2 = _stokes_sums(apply_strain_bias(model), grid)
    if not np.all(np.isfinite([s0, s1, s2])):
        raise NumericalError("channel Stokes sums overflow")
    n_e = grid.n_points
    valid = s0 > LOW_SIGNAL_FRACTION * s0.max()
    psi = np.full(n_e, np.nan)
    dolp = np.zeros(n_e)
    psi[valid] = wrap_orientation(
        0.5 * np.rad2deg(np.arctan2(s2[valid], s1[valid])))
    dolp[valid] = np.hypot(s1[valid], s2[valid]) / s0[valid]
    return OrientationCurve(grid, psi, dolp,
                            lineshape_density(model, grid), valid)


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
