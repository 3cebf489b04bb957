import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import lambertw

import vibropol.dipole as dipole
from vibropol import (EmitterModel, NumericalError, PhononMode,
                      ValidationError, apply_strain_bias, condon_limit,
                      dipole_at_displacement, load_preset, make_grid,
                      mode_rotations, opsb_offset, orientation_vs_energy,
                      solve_gradient_for_rotation, thermal_amplification)
from vibropol.core import wrap_orientation_scalar
from vibropol.vibronic import (_acoustic_kernel_weights, acoustic_wing_density,
                               full_band_grid, lineshape_density)


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
    # (psi0 + 90 must stay on the storage branch, hence a negative psi0)
    psi0 = -20.0
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
    # rotating the lab frame leaves every delta_theta unchanged; frames
    # are drawn so no gradient axis crosses the branch cut at +/-90 deg
    rng = np.random.default_rng(3)
    base_alphas = [-25.0, 10.0, 30.0]
    base = _model([_mode(0.4, a) for a in base_alphas])
    ref = [r.delta_theta for r in mode_rotations(base)]
    for phi in rng.uniform(-55.0, 55.0, 10):
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


def test_strain_bias_monotonic_stokes_flank():
    model = load_preset("strong_coupling")
    lo = model.zpl_energy - 0.012
    hi = model.zpl_energy - 0.002
    curve = orientation_vs_energy(model, make_grid(lo, hi, 101))
    psi = curve.psi[curve.valid]
    d = np.diff(psi)
    assert np.all(d <= 1e-9) or np.all(d >= -1e-9)


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


# ------------------------------------- banded sum vs dense reference

def _dense_stokes(model, grid):
    """Reference (s0, s1, s2): every line at every grid point."""
    eff = apply_strain_bias(model)
    shifts, weights, vx, vy = dipole._enumerate_lines(eff)
    amp = thermal_amplification(eff)
    sense = np.sign(eff.strain_bias)
    a_ac = np.deg2rad(eff.acoustic_direction)
    gac = eff.acoustic_gradient
    ux, uy = np.cos(a_ac), np.sin(a_ac)
    sigma_jit = gac * eff.orientation_jitter * amp / eff.equilibrium_dipole
    jitter_dolp = float(np.exp(-2.0 * sigma_jit ** 2))
    _, _, knorm = _acoustic_kernel_weights(eff)
    shift_e = (eff.zpl_energy - grid.points) * 1e3
    s = np.zeros((3, grid.n_points))

    def add(w_i, x, y):
        r2 = x * x + y * y
        c2 = np.where(r2 > 0, (x * x - y * y) / np.where(r2 > 0, r2, 1), 0.0)
        sn2 = np.where(r2 > 0, 2 * x * y / np.where(r2 > 0, r2, 1), 0.0)
        s[0] += w_i.sum(axis=0)
        s[1] += (w_i * c2).sum(axis=0) * jitter_dolp
        s[2] += (w_i * sn2).sum(axis=0) * jitter_dolp

    chunk = max(1, int(4e6) // grid.n_points)
    for start in range(0, shifts.size, chunk):
        sl = slice(start, start + chunk)
        w = weights[sl][:, None]
        bx = vx[sl][:, None]
        by = vy[sl][:, None]
        delta = shift_e[None, :] - shifts[sl][:, None]
        add(w * dipole._profile_density(delta, eff.zpl_linewidth,
                                        eff.zpl_profile) / knorm, bx, by)
        if eff.acoustic_coupling > 0:
            q_ac = np.sqrt(np.abs(delta) / eff.acoustic_cutoff) * amp * sense
            q_ac = np.where(delta >= 0, -q_ac,
                            (1.0 + dipole.ANTI_STOKES_AMPLIFICATION) * q_ac)
            add(w * acoustic_wing_density(eff, delta) / knorm,
                bx + gac * q_ac * ux, by + gac * q_ac * uy)
    return s


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


def _assert_matches_dense(model, grid):
    got = dipole._stokes_sums(apply_strain_bias(model), grid)
    ref = _dense_stokes(model, grid)
    peak = ref[0].max()
    assert np.abs(got - ref).max() <= 1e-12 * peak
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


@pytest.mark.parametrize("window,profile,temp,bias,acoustic", BANDED_CASES)
def test_banded_sum_matches_dense(window, profile, temp, bias, acoustic):
    model = replace(load_preset("strong_coupling", temperature_k=temp,
                                strain_bias=bias),
                    zpl_profile=profile, acoustic_coupling=acoustic)
    _assert_matches_dense(model, _window(model, window))


def test_failed_tail_check_redoes_with_every_line(monkeypatch):
    # reaches far too short for the bound: the check must fail and the
    # all-lines redo must reproduce the dense sum
    model = load_preset("strong_coupling")
    calls = []
    sums = dipole._channel_sums

    def spy(*args):
        calls.append(args[-2:])
        return sums(*args)

    monkeypatch.setattr(dipole, "_line_reach",
                        lambda m, budget: (0.0, m.acoustic_cutoff))
    monkeypatch.setattr(dipole, "_channel_sums", spy)
    _assert_matches_dense(model, _window(model, "polmap"))
    assert calls[:2] == [(0.0, model.acoustic_cutoff), (np.inf, np.inf)]


def test_wing_root_never_below_lambert_w():
    a = np.concatenate([np.logspace(-300, np.log10(0.3), 1500),
                        np.linspace(0.3, math.exp(-1.0), 500, endpoint=False),
                        math.exp(-1.0) * (1.0 - np.logspace(-15, -1, 100))])
    a = a[a < math.exp(-1.0)]
    x = np.array([dipole._falling_root(v) for v in a])
    ref = -lambertw(-a, -1).real
    rel = (x - ref) / ref
    assert rel.min() >= -1e-14
    assert np.abs(rel[a <= 0.3]).max() <= 1e-12
    assert dipole._falling_root(0.5) == 1.0
    assert dipole._falling_root(0.0) == math.inf
