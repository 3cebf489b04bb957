import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw

import vibropol.dipole as dipole
from vibropol import (EmitterModel, NumericalError, PhononMode,
                      ValidationError, apply_strain_bias, condon_limit,
                      dipole_at_displacement, load_preset, make_grid,
                      mode_rotations, opsb_offset, orientation_vs_energy,
                      solve_gradient_for_rotation, thermal_amplification)
from vibropol.core import wrap_orientation
import vibropol.vibronic as vibronic
from vibropol.vibronic import (_acoustic_kernel_weights, _wing_factor,
                               acoustic_wing_density, full_band_grid,
                               lineshape, lineshape_density)


def _model(modes, psi0=0.0, mu0=1.0, **kw):
    return EmitterModel(zpl_energy=1.848, equilibrium_angle=psi0,
                        equilibrium_dipole=mu0, modes=tuple(modes),
                        zpl_linewidth=1.0, zpl_profile="gaussian", **kw)


def _mode(grad, direction, energy=165.0, hr=1.0, dq=0.3):
    return PhononMode(energy, hr, dq, grad, direction)


# -------------------------------------------------- dipole at displacement

def test_equilibrium_geometry_identity():
    m = _model([_mode(0.7, 40.0)], psi0=25.0, mu0=1.7)
    angle, mag = dipole_at_displacement(m, [0.0])
    assert angle == 25.0
    assert mag == 1.7


def test_right_triangle_rotation():
    # perpendicular gradient with g*dq = mu0*tan(10 deg) rotates by 10 deg
    psi0 = 20.0
    g = math.tan(math.radians(10.0)) / 0.3
    m = _model([_mode(g, psi0 + 90.0)], psi0=psi0)
    angle, _ = dipole_at_displacement(m, [1.0])
    assert abs(angle - psi0 - 10.0) < 1e-9


def test_symmetric_cancellation():
    # equal gradients at psi0 +/- 45 deg: perpendicular parts cancel
    m = _model([_mode(0.5, 45.0), _mode(0.5, -45.0)])
    angle, mag = dipole_at_displacement(m, [1.0, 1.0])
    assert abs(angle) < 1e-12
    assert mag > 1.0


def test_degenerate_cancellation_raises():
    # gradient antiparallel to the dipole with q chosen to cancel it
    m = _model([_mode(1.0, 0.0, dq=1.0)])
    with pytest.raises(NumericalError):
        dipole_at_displacement(m, [-1.0])


def test_q_shape_validation():
    m = _model([_mode(0.1, 30.0), _mode(0.1, 60.0)])
    with pytest.raises(ValidationError):
        dipole_at_displacement(m, [1.0])


def test_first_order_consistency():
    psi0 = 10.0
    alpha = 55.0
    for ratio in (1e-2, 1e-3):
        g = ratio / 0.3
        m = _model([_mode(g, alpha)], psi0=psi0)
        exact = mode_rotations(m)[0].delta_theta
        linear = ratio * math.sin(math.radians(alpha - psi0)) * 180.0 / math.pi
        assert abs(exact - linear) / abs(linear) < ratio


# -------------------------------------------------------- mode rotations

def test_mode_rotations_condon():
    m = _model([_mode(0.0, 30.0), _mode(0.0, -60.0)])
    assert all(r.delta_theta == 0.0 for r in mode_rotations(m))


def test_mode_rotations_weak_preset_maximum():
    rots = mode_rotations(load_preset("weak_coupling"))
    assert abs(max(abs(r.delta_theta) for r in rots) - 2.7) < 1e-6


def test_mode_rotations_strong_preset_maximum():
    rots = mode_rotations(load_preset("strong_coupling"))
    assert abs(max(abs(r.delta_theta) for r in rots) - 10.0) < 1e-6


def test_mode_rotations_frame_invariance():
    # rotating the lab frame leaves every delta_theta unchanged
    rng = np.random.default_rng(3)
    base_alphas = [-25.0, 10.0, 30.0]
    base = _model([_mode(0.4, a) for a in base_alphas])
    ref = [r.delta_theta for r in mode_rotations(base)]
    for phi in rng.uniform(-180.0, 180.0, 10):
        m = _model([_mode(0.4, a + phi) for a in base_alphas], psi0=phi)
        got = [r.delta_theta for r in mode_rotations(m)]
        assert np.allclose(got, ref, atol=1e-10)


def test_solve_gradient_round_trip():
    psi0, alpha, mu0, dq = 5.0, 70.0, 1.3, 0.25
    g = solve_gradient_for_rotation(6.5, alpha, psi0, mu0, dq)
    m = _model([PhononMode(165.0, 1.0, dq, g, alpha)], psi0=psi0, mu0=mu0)
    assert abs(mode_rotations(m)[0].delta_theta - 6.5) < 1e-9


def test_solve_gradient_rejects_wrong_sign():
    with pytest.raises(ValidationError):
        solve_gradient_for_rotation(-5.0, 70.0, 0.0, 1.0, 0.3)


# ---------------------------------------------------------- strain bias

def test_strain_bias_zero_identity():
    m = _model([_mode(0.3, 40.0), _mode(0.3, -40.0)])
    assert apply_strain_bias(m) is m


def test_strain_bias_full_alignment():
    m = _model([_mode(0.3, 40.0), _mode(0.2, -55.0), _mode(0.4, 70.0)],
               strain_bias=1.0)
    rots = mode_rotations(apply_strain_bias(m))
    signs = {math.copysign(1.0, r.delta_theta) for r in rots}
    assert signs == {1.0}
    # magnitudes are preserved by the mirror
    raw = mode_rotations(m)
    for a, b in zip(raw, rots):
        assert abs(abs(a.delta_theta) - abs(b.delta_theta)) < 1e-9


def test_strain_bias_negative_alignment():
    m = _model([_mode(0.3, 40.0), _mode(0.2, -55.0)], strain_bias=-1.0)
    rots = mode_rotations(apply_strain_bias(m))
    assert all(r.delta_theta < 0 for r in rots)


def test_strain_bias_partial_blend_moves_toward_mirror():
    m0 = _model([_mode(0.3, -50.0)], strain_bias=0.5)
    d0 = mode_rotations(m0)[0].delta_theta
    d1 = mode_rotations(apply_strain_bias(m0))[0].delta_theta
    assert d0 < 0 < d1 or abs(d1) < abs(d0)


def test_strain_bias_mirror_past_the_axis_branch():
    # psi0 = -46 deg, one mode at 0 deg: the full negative bias turns the
    # gradient to its mirror at -92 deg, which is a plain vector angle; on
    # the axis branch [-90, 90) it read as the opposite vector and the
    # model exited with a validation error
    m = _model([_mode(0.5, 0.0)], psi0=-46.0, strain_bias=-1.0,
               temperature=300.0, acoustic_coupling=2.0,
               acoustic_gradient=0.02)
    biased = apply_strain_bias(m)
    assert biased.modes[0].grad_direction == -92.0
    before, after = (mode_rotations(x)[0].delta_theta for x in (m, biased))
    assert before > 0 and abs(after + before) < 1e-9
    grid = make_grid(m.zpl_energy - 0.2, m.zpl_energy + 0.03, 231)
    assert np.any(orientation_vs_energy(m, grid).valid)


_angles = st.floats(-180.0, 180.0, exclude_max=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(psi0=_angles, bias=st.floats(-1.0, 1.0), full=st.booleans(),
       modes=st.lists(st.tuples(st.floats(0.0, 2.0), _angles), max_size=4))
def test_strain_bias_never_raises(psi0, bias, full, modes):
    # any psi0, directions and bias: the bias is a rotation toward the
    # mirror, so it never raises; the full bias gives every mode the
    # bias's sense at its own magnitude
    if full:
        bias = math.copysign(1.0, bias)
    m = _model([_mode(g, a) for g, a in modes], psi0=psi0, strain_bias=bias)
    rots = mode_rotations(apply_strain_bias(m))
    if abs(bias) == 1.0:
        for raw, got in zip(mode_rotations(m), rots):
            assert got.delta_theta * bias > 0 or abs(got.delta_theta) < 1e-9
            assert abs(abs(got.delta_theta) - abs(raw.delta_theta)) < 1e-9


def _flank_is_monotone(model):
    lo = model.zpl_energy - 0.012
    hi = model.zpl_energy - 0.002
    curve = orientation_vs_energy(model, make_grid(lo, hi, 101))
    d = np.diff(curve.psi[curve.valid])
    return np.all(d <= 1e-9) or np.all(d >= -1e-9)


def test_strain_bias_monotonic_stokes_flank(monkeypatch):
    # the bias gives every Stokes channel and the acoustic wing one
    # rotation sense.  At 300 K the difference lines at 4, 5, 9 and 14 meV
    # also reach the flank; each carries one anti-Stokes quantum, whose
    # axis turns against that sense, and with the wing broadened by the
    # ZPL profile they reverse psi by up to 0.011 deg at 8.5-8.8 meV.  So
    # the whole model is held to it up to 200 K, and at 300 K with the
    # anti-Stokes replicas left out
    for temp in (77.0, 150.0, 200.0):
        assert _flank_is_monotone(
            load_preset("strong_coupling", temperature_k=temp))
    mode_lines = dipole.mode_line_weights

    def stokes_lines(mode, temperature):
        ms, ws = mode_lines(mode, temperature)
        return ms[ms >= 0], ws[ms >= 0]

    monkeypatch.setattr(dipole, "mode_line_weights", stokes_lines)
    assert _flank_is_monotone(load_preset("strong_coupling"))


# -------------------------------------------------- orientation vs energy

def test_condon_limit_constant_orientation():
    for name in ("weak_coupling", "strong_coupling"):
        for temp in (0.0, 6.0, 77.0, 300.0):
            model = condon_limit(load_preset(name, temperature_k=temp))
            grid = make_grid(model.zpl_energy - 0.03,
                             model.zpl_energy + 0.03, 201)
            curve = orientation_vs_energy(model, grid)
            v = curve.valid
            assert np.any(v)
            assert np.all(np.abs(curve.psi[v] - model.equilibrium_angle)
                          < 1e-9)
            assert np.all(np.abs(curve.dolp[v] - 1.0) < 1e-9)


def test_dolp_bounded_by_one():
    model = load_preset("strong_coupling")
    grid = make_grid(model.zpl_energy - 0.2, model.zpl_energy + 0.05, 401)
    curve = orientation_vs_energy(model, grid)
    assert np.all(curve.dolp <= 1.0 + 1e-12)


def test_thermal_amplification_values():
    model = load_preset("strong_coupling")
    assert thermal_amplification(load_preset("strong_coupling",
                                             temperature_k=0)) == 0.0
    a6 = thermal_amplification(load_preset("strong_coupling",
                                           temperature_k=6))
    a300 = thermal_amplification(model)
    assert 0.0 < a6 < 0.1 < a300


def _band_sweep(model):
    grid = make_grid(model.zpl_energy - 0.03, model.zpl_energy + 0.03, 301)
    curve = orientation_vs_energy(model, grid)
    sel = curve.valid & (curve.weight > 0.01 * curve.weight.max())
    psi = curve.psi[sel]
    return float(psi.max() - psi.min())


def test_thermal_suppression_monotone():
    sweeps = [_band_sweep(load_preset("strong_coupling", temperature_k=t))
              for t in (0.0, 6.0, 77.0, 300.0)]
    for a, b in zip(sweeps, sweeps[1:]):
        assert b >= a - 1e-6
    assert sweeps[1] < 2.0 < sweeps[-1]


def test_bias_antisymmetry():
    # mirror-symmetric mode set at psi0 = 0: flipping the bias sign
    # mirrors the whole orientation curve
    modes = [_mode(0.3, 40.0, energy=150.0, hr=0.8),
             _mode(0.25, -55.0, energy=170.0, hr=1.0)]
    base = dict(acoustic_coupling=2.0, acoustic_gradient=0.02,
                orientation_jitter=1.0, temperature=300.0)
    plus = _model(modes, strain_bias=1.0, **base)
    minus = _model(modes, strain_bias=-1.0, **base)
    grid = make_grid(plus.zpl_energy - 0.2, plus.zpl_energy + 0.05, 501)
    cp = orientation_vs_energy(plus, grid)
    cm = orientation_vs_energy(minus, grid)
    v = cp.valid & cm.valid
    assert np.any(v)
    assert np.allclose(cp.psi[v], -cm.psi[v], atol=1e-9)
    assert np.allclose(cp.dolp[v], cm.dolp[v], atol=1e-9)


@pytest.mark.parametrize("name", ["strong_coupling", "weak_coupling"])
def test_lab_frame_turn_turns_psi(name):
    # turning psi0, every gradient direction and the acoustic direction by
    # phi turns psi by phi and leaves DOLP, weight and valid bins alone
    ref_model = load_preset(name)
    grid = make_grid(ref_model.zpl_energy - 0.03, ref_model.zpl_energy + 0.03,
                     601)
    ref = orientation_vs_energy(ref_model, grid)
    assert np.any(ref.valid)
    for phi in (-90.0, -40.0, -5.0, 20.0, 90.0, 180.0):
        turned = replace(
            ref_model, equilibrium_angle=ref_model.equilibrium_angle + phi,
            acoustic_grad_direction=ref_model.acoustic_direction + phi,
            modes=tuple(replace(m, grad_direction=m.grad_direction + phi)
                        for m in ref_model.modes))
        curve = orientation_vs_energy(turned, grid)
        assert np.array_equal(curve.valid, ref.valid)
        assert np.array_equal(curve.weight, ref.weight)
        v = ref.valid
        assert np.abs(wrap_orientation(curve.psi[v] - ref.psi[v] - phi)
                      ).max() < 1e-8
        assert np.abs(curve.dolp - ref.dolp).max() < 1e-10


def test_low_signal_marked_invalid():
    model = load_preset("weak_coupling", temperature_k=0)
    # grid reaching far above the ZPL where nothing emits at T = 0
    grid = make_grid(model.zpl_energy - 0.01, model.zpl_energy + 0.4, 801)
    curve = orientation_vs_energy(model, grid)
    assert not np.all(curve.valid)
    assert np.all(np.isnan(curve.psi[~curve.valid]))


# ------------------------------------------------------------ opsb offset

def test_opsb_offset_magnitude():
    off = opsb_offset(load_preset("strong_coupling"))
    assert abs(abs(off) - 5.0) < 1.0


def test_opsb_offset_condon_zero():
    off = opsb_offset(condon_limit(load_preset("strong_coupling")))
    assert abs(off) < 1e-9


def test_opsb_offset_bias_antisymmetry():
    plus = opsb_offset(load_preset("strong_coupling", strain_bias=1.0))
    minus = opsb_offset(load_preset("strong_coupling", strain_bias=-1.0))
    assert abs(plus + minus) < 1e-6


def test_opsb_offset_requires_modes():
    m = EmitterModel(zpl_energy=1.848, equilibrium_angle=0.0,
                     equilibrium_dipole=1.0, modes=(), zpl_linewidth=1.0)
    with pytest.raises(ValidationError):
        opsb_offset(m)


# ------------------------------- lattice sums vs dense reference

def _lines(model):
    """Lines of the biased model: shifts, weights, dipoles, Stokes sticks."""
    shifts, weights, dip = dipole._enumerate_lines(model)
    vx, vy = dip.real, dip.imag
    r2 = vx * vx + vy * vy
    jit = dipole._jitter_dolp(model)
    coef = np.stack([weights, weights * (vx * vx - vy * vy) / r2 * jit,
                     weights * 2 * vx * vy / r2 * jit])
    return shifts, weights, vx, vy, coef


def _reaches(model, grid):
    """(kept-line mask, R_p, R_w) as ``orientation_vs_energy`` sets them."""
    shifts, weights = dipole._enumerate_lines(model)[:2]
    _, _, knorm = _acoustic_kernel_weights(model)
    peak = lineshape_density(model, grid).max()
    budget = (dipole.TAIL_FRACTION * dipole.LOW_SIGNAL_FRACTION * peak
              * knorm / weights.sum())
    reach_p, reach_w = dipole._line_reach(model, budget)
    d_lo = (model.zpl_energy - grid.max_energy) * 1e3
    d_hi = (model.zpl_energy - grid.min_energy) * 1e3
    r = reach_p + reach_w
    return (shifts >= d_lo - r) & (shifts <= d_hi + r), reach_p, reach_w


def _direct_sticks(shifts, coef, tau):
    """sum_i coef_i e^{-i s_i tau} summed term by term at the uniform tau,
    with e^{-i s (64 b + j) dtau} = e^{-i s 64 b dtau} e^{-i s j dtau}."""
    dt = tau[1] - tau[0]
    nb = -(-tau.size // 64)
    head = np.exp(-1j * np.outer(np.arange(nb) * 64 * dt, shifts))
    tail = np.exp(-1j * np.outer(shifts, np.arange(64) * dt))
    return np.stack([((head * c) @ tail).ravel()[:tau.size] for c in coef])


def _residual_at(model, y, shifts, weights, vx, vy, reach_w):
    """(s1, s2) of the acoustic rotation term at shifts y (meV, ascending),
    line by line: rho(d) J [c_k(b + g q(d)) - c_k(b)] w / knorm."""
    amp = thermal_amplification(model)
    a_ac = np.deg2rad(model.acoustic_direction)
    gx = model.acoustic_gradient * np.cos(a_ac)
    gy = model.acoustic_gradient * np.sin(a_ac)
    jit = dipole._jitter_dolp(model)
    _, _, knorm = _acoustic_kernel_weights(model)
    order = np.argsort(shifts)
    s, w, bx, by = shifts[order], weights[order], vx[order], vy[order]
    out = np.zeros((2, y.size))

    def axis(x, z):
        r2 = x * x + z * z
        return (x * x - z * z) / r2, 2 * x * z / r2

    for j0 in range(0, y.size, 256):
        blk = y[j0:j0 + 256]
        a = np.searchsorted(s, blk[0] - reach_w)
        b = np.searchsorted(s, blk[-1] + reach_w, side="right")
        delta = blk[None, :] - s[a:b, None]
        rho = np.where(np.abs(delta) <= reach_w,
                       acoustic_wing_density(model, delta), 0.0)
        rho *= w[a:b, None] * jit / knorm
        q = (np.sqrt(np.abs(delta) / model.acoustic_cutoff) * amp
             * np.sign(model.strain_bias))
        q = np.where(delta >= 0, -q,
                     (1.0 + dipole.ANTI_STOKES_AMPLIFICATION) * q)
        c0 = axis(bx[a:b, None], by[a:b, None])
        c1 = axis(bx[a:b, None] + gx * q, by[a:b, None] + gy * q)
        for k in range(2):
            out[k, j0:j0 + 256] = (rho * (c1[k] - c0[k])).sum(axis=0)
    return out


def _profile(model, delta, period):
    """Unit-area ZPL profile at detuning delta; the Lorentzian periodized
    on the lattice period, as the renderer's lattice holds it."""
    fwhm = model.zpl_linewidth
    if model.zpl_profile == "gaussian":
        sig = fwhm / (2 * np.sqrt(2 * np.log(2)))
        return np.exp(-0.5 * (delta / sig) ** 2) / (sig * np.sqrt(2 * np.pi))
    a = np.pi * fwhm / period
    return np.sinh(a) / (period * (np.cosh(a) - np.cos(2 * np.pi * delta / period)))


def _dense_stokes(model, grid, near=10.0):
    """Reference (s0, s1, s2) and the residual's stated bound on the grid.

    Sticks: the direct sum sum_i c_i e^{-i (s_i - lo) tau} times the wing
    factor at every kept tau, rendered on a lattice twice the code's reach.
    Residual: quadrature on a 16x finer lattice for the lines within
    ``near`` meV of the window, and on the code's lattice for the others,
    convolved with the profile by direct summation.
    """
    eff = apply_strain_bias(model)
    kept, reach_p, reach_w = _reaches(eff, grid)
    shifts, weights, vx, vy, coef = _lines(eff)
    shifts, weights, vx, vy, coef = (shifts[kept], weights[kept], vx[kept],
                                     vy[kept], coef[:, kept])
    plan = vibronic._plan(eff, grid, 2 * (reach_p + reach_w))
    tau, lo, d, n = plan.tau, plan.lo, plan.d, plan.n
    s = vibronic._render(eff, plan, _direct_sticks(shifts - lo, coef, tau)
                         * _wing_factor(eff, tau))
    x = (eff.zpl_energy - grid.points) * 1e3
    amp = thermal_amplification(eff)
    if eff.acoustic_coupling == 0 or amp == 0:
        return s, np.zeros(grid.n_points)    # the residual vanishes
    period = n * d
    d_lo, d_hi = x.min(), x.max()
    gap = np.maximum(d_lo - shifts, shifts - d_hi)
    fine = gap <= near

    def points(ext, sub):
        # lattice points within ext of the window, each step cut in sub
        j0 = max(0.0, np.ceil((d_lo - ext - lo) / d))
        j1 = min(n - 1.0, np.floor((d_hi + ext - lo) / d))
        return lo + d * (j0 + np.arange(int(sub * (j1 - j0)) + 1) / sub)

    # the code's lattice points within R_p of the window, and 16x finer
    # ones over the supports of the lines near the window
    for sel, sub in ((~fine, 1), (fine, 16)):
        if np.any(sel):
            y = points(min(reach_p, near + reach_w) if sub > 1 else reach_p,
                       sub)
            r = _residual_at(eff, y, shifts[sel], weights[sel], vx[sel],
                             vy[sel], reach_w)
            s[1:] += d / sub * _smear(eff, x, y, r, period, reach_p)
    # the docstring's bound, 2 x 0.0361 d^{5/2} sum_i (|a+| + |a-|)
    # p(x - s_i), at the code's step and at the reference's
    steps = d ** 2.5 + np.where(fine, d / 16, d) ** 2.5
    _, _, knorm = _acoustic_kernel_weights(eff)
    alpha = (2 * eff.acoustic_gradient * amp * eff.acoustic_coupling
             * dipole._jitter_dolp(eff) * weights * steps
             * (2 + dipole.ANTI_STOKES_AMPLIFICATION)
             / (knorm * eff.acoustic_cutoff ** 2.5 * np.hypot(vx, vy)))
    order = np.argsort(shifts)
    return s, 2 * 0.0361 * _smear(eff, x, shifts[order],
                                  alpha[order][None, :], period, reach_p)[0]


def _smear(model, x, y, r, period, reach):
    """sum_j p(x - y_j) r[:, j] at each x, y ascending; the profile
    vanishes beyond ``reach`` to the budget."""
    out = np.zeros((r.shape[0], x.size))
    for i0 in range(0, x.size, 16):
        xs = x[i0:i0 + 16]
        a = np.searchsorted(y, xs.min() - reach)
        b = np.searchsorted(y, xs.max() + reach, side="right")
        out[:, i0:i0 + 16] = r[:, a:b] @ _profile(
            model, xs[:, None] - y[None, a:b], period).T
    return out


def _opsb_window(model):
    # the sideband window opsb_offset sums over
    w_lo = min(m.energy_mev for m in model.modes)
    w_hi = max(m.energy_mev for m in model.modes)
    pad = 6.0 * model.zpl_linewidth + 2.0
    lo = model.zpl_energy - (w_hi + pad) * 1e-3
    hi = model.zpl_energy - (w_lo - pad) * 1e-3
    return make_grid(lo, hi, int((hi - lo) / 0.2e-3) + 1)


def _window(model, name):
    if name == "polmap":
        return make_grid(model.zpl_energy - 0.03, model.zpl_energy + 0.03, 121)
    if name == "opsb":
        return _opsb_window(model)
    return full_band_grid(model, spacing_mev=10.0)


def _assert_matches_dense(model, grid, near=10.0):
    weight = lineshape_density(model, grid)
    got = dipole._stokes_sums(apply_strain_bias(model), grid, weight)
    ref, bound = _dense_stokes(model, grid, near)
    peak = ref[0].max()
    assert np.abs(got[0] - ref[0]).max() <= 1e-12 * peak
    assert np.all(np.abs(got[1:] - ref[1:]) <= 1e-12 * peak + bound)
    curve = orientation_vs_energy(model, grid)
    assert np.array_equal(curve.valid,
                          ref[0] > dipole.LOW_SIGNAL_FRACTION * peak)


BANDED_CASES = (
    [("polmap", prof, temp, bias, 2.0)
     for prof in ("gaussian", "lorentzian")
     for temp in (0.0, 6.0, 300.0)
     for bias in (1.0, -1.0)]
    + [("polmap", prof, 300.0, 1.0, 0.0) for prof in ("gaussian", "lorentzian")]
    + [("opsb", prof, 300.0, 1.0, 2.0) for prof in ("gaussian", "lorentzian")]
    + [("full", "gaussian", 300.0, 1.0, 2.0), ("full", "gaussian", 6.0, -1.0, 0.0),
       ("full", "lorentzian", 300.0, -1.0, 2.0)])


@pytest.mark.parametrize("name,profile,temp", [
    (name, "gaussian", temp) for name in ("weak_coupling", "strong_coupling")
    for temp in (0.0, 6.0, 300.0)] + [("strong_coupling", "lorentzian", 300.0)])
def test_curve_weight_is_the_lineshape(name, profile, temp):
    # one emission intensity: the curve carries the generating-function
    # lineshape itself, not the channel s0
    model = replace(load_preset(name, temperature_k=temp), zpl_profile=profile)
    for window in ("polmap", "opsb"):
        grid = _window(model, window)
        curve = orientation_vs_energy(model, grid)
        assert np.array_equal(curve.weight,
                              lineshape_density(model, grid))


@pytest.mark.parametrize("name,profile,temp", [
    (name, profile, temp) for name in ("weak_coupling", "strong_coupling")
    for profile in ("gaussian", "lorentzian") for temp in (0.0, 6.0, 300.0)])
def test_channel_s0_is_the_lineshape(name, profile, temp):
    # s0 is the lineshape up to the weight below the line cutoff, times
    # the profile's peak, plus the tail budget of the lines beyond the
    # reach: the bound the runtime check holds it to
    model = replace(load_preset(name, temperature_k=temp), zpl_profile=profile)
    eff = apply_strain_bias(model)
    dropped = abs(1.0 - dipole._enumerate_lines(eff)[1].sum()) + 1e-12
    for window in ("polmap", "opsb", "full"):
        grid = _window(model, window)
        weight = lineshape_density(model, grid)
        s0 = dipole._stokes_sums(eff, grid, weight)[0]
        tol = (dipole.TAIL_FRACTION * dipole.LOW_SIGNAL_FRACTION
               * weight.max())
        assert (np.abs(s0 - weight).max()
                <= dropped / model.zpl_linewidth + tol)


@pytest.mark.parametrize("profile", ["gaussian", "lorentzian"])
def test_channel_s0_of_a_lone_zpl(profile):
    # no line weight is left out, so only the spreading and rounding
    # separate s0 from the lineshape: the check's 1e-12 allowance
    model = EmitterModel(zpl_energy=1.848, equilibrium_angle=20.0,
                         equilibrium_dipole=1.0, modes=(), zpl_linewidth=1.0,
                         zpl_profile=profile, temperature=300.0,
                         acoustic_coupling=2.0)
    curve = orientation_vs_energy(model, _window(model, "polmap"))
    assert np.all(np.abs(curve.psi[curve.valid] - 20.0) < 1e-9)


def test_rounding_noise_is_neither_valid_nor_over_polarized():
    # 100 meV below a lone ZPL its wing is e^{-50}: the renders there are
    # rounding noise (under the 1e-12/FWHM floor); where a faint wing
    # rises out of it, the noise could push |s12| / s0 past 1
    lone = EmitterModel(zpl_energy=1.848, equilibrium_angle=20.0,
                        equilibrium_dipole=1.0, modes=(), zpl_linewidth=1.0,
                        zpl_profile="gaussian", acoustic_coupling=2.0,
                        acoustic_cutoff=2.0)
    assert not np.any(orientation_vs_energy(
        lone, make_grid(1.745, 1.755, 101)).valid)
    wing = replace(lone, zpl_linewidth=2.77, acoustic_coupling=0.18,
                   acoustic_cutoff=3.39)
    curve = orientation_vs_energy(wing, make_grid(1.628, 1.757, 334))
    assert np.any(curve.valid) and np.all(curve.dolp <= 1.0)


@pytest.mark.parametrize("window,profile,temp,bias,acoustic", BANDED_CASES)
def test_banded_sum_matches_dense(window, profile, temp, bias, acoustic):
    model = replace(load_preset("strong_coupling", temperature_k=temp,
                                strain_bias=bias),
                    zpl_profile=profile, acoustic_coupling=acoustic)
    # the full band holds every line near the window: its residual is
    # held to the code's own lattice, which a 16x finer one would make
    # 3e8 wing evaluations
    _assert_matches_dense(model, _window(model, window),
                          -np.inf if window == "full" else 10.0)


def test_large_huang_rhys_factor_keeps_its_weight():
    # 40 net quanta held 0.967 of a mode with S = 30; the lines now reach
    # past the weight's tail, and the channel s0 of the model passes the
    # runtime check
    model = load_preset("strong_coupling")
    mode = replace(model.modes[0], partial_hr=30.0)
    ms, ws = dipole.mode_line_weights(mode, model.temperature)
    assert ws.sum() >= 1.0 - 1e-6
    assert ms.max() > 40
    big = replace(model, modes=(mode,) + model.modes[1:])
    assert np.any(orientation_vs_energy(big, _window(big, "full")).valid)


def test_huang_rhys_factor_beyond_the_table_raises():
    # S = 400 overflowed the former table's s ** m; it now keeps its weight
    mode = replace(load_preset("strong_coupling").modes[0], partial_hr=400.0)
    ms, ws = dipole.mode_line_weights(mode, 300.0)
    assert abs(ws.sum() - 1.0) <= 2e-16 and ms.max() > 400
    # a mode needing more than MAX_LINES net quanta raises
    with pytest.raises(NumericalError, match="more than 400000 quanta"):
        dipole.mode_line_weights(replace(mode, partial_hr=1e6), 300.0)


def test_wing_root_never_below_lambert_w():
    # R_w = c x, x e^{-x} = a = budget c/(16 w_s) on the falling branch:
    # the closed form is above W_-1 by 1.4e-3 or more, and above it by at
    # most ln 2, and by at most 0.3% where a <= 1e-6
    model = load_preset("strong_coupling")
    w_s, c = model.acoustic_coupling, model.acoustic_cutoff
    a = np.concatenate([np.logspace(-300, np.log10(0.3), 1500),
                        np.linspace(0.3, math.exp(-1.0), 500, endpoint=False),
                        math.exp(-1.0) * (1.0 - np.logspace(-15, -1, 100))])
    budget = 16.0 * w_s * a / c
    a = budget * c / (16.0 * w_s)           # as _line_reach forms it
    keep = a < math.exp(-1.0)
    a, budget = a[keep], budget[keep]
    x = np.array([dipole._line_reach(model, b)[1] for b in budget]) / c
    ref = -lambertw(-a, -1).real
    assert (x - ref).min() >= 1.4e-3
    assert (x - ref).max() <= math.log(2.0)
    assert ((x - ref) / ref)[a <= 1e-6].max() <= 3e-3
    assert dipole._line_reach(model, 0.5 * 16.0 * w_s / c)[1] == c
    assert dipole._line_reach(model, 5e-324)[1] == math.inf
    nowing = replace(model, acoustic_coupling=0.0)
    assert dipole._line_reach(nowing, 1e-18)[1] == 0.0


@st.composite
def _random_model(draw):
    """0-3 modes, either profile, 0-500 K, with or without a wing"""
    modes = [PhononMode(draw(st.floats(1.0, 200.0)), draw(st.floats(0.0, 3.0)),
                        draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.6)),
                        draw(_angles))
             for _ in range(draw(st.integers(0, 3)))]
    wing = draw(st.booleans())
    return EmitterModel(
        zpl_energy=1.848, equilibrium_angle=draw(_angles),
        equilibrium_dipole=1.0, modes=tuple(modes),
        zpl_linewidth=draw(st.floats(0.3, 3.0)),
        zpl_profile=draw(st.sampled_from(["gaussian", "lorentzian"])),
        temperature=draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0))),
        acoustic_coupling=draw(st.floats(0.1, 3.0)) if wing else 0.0,
        acoustic_cutoff=draw(st.floats(0.5, 5.0)),
        strain_bias=draw(st.floats(-1.0, 1.0)),
        acoustic_gradient=draw(st.floats(0.0, 0.05)) if wing else 0.0,
        orientation_jitter=draw(st.floats(0.0, 5.0)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model=_random_model())
def test_random_models_render_and_orient(model):
    # lineshape takes its own full band, and the map window's curve raises
    # nothing and has DOLP <= 1 and psi finite where valid
    lineshape(model, full_band_grid(model))
    window = make_grid(model.zpl_energy - 0.030, model.zpl_energy + 0.030, 121)
    curve = orientation_vs_energy(model, window)
    assert np.all(curve.dolp <= 1.0)
    assert np.all(np.isfinite(curve.psi[curve.valid]))
