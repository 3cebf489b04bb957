import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import erfc, eval_genlaguerre, gammaln, ive

import vibropol.vibronic as vibronic
from vibropol import (EmitterModel, NumericalError, PhononMode,
                      ValidationError, bose_occupation, debye_waller,
                      full_band_grid, lineshape, lineshape_bruteforce,
                      lineshape_density, load_preset, make_grid,
                      spectral_function, total_dq, KB_MEV)
from vibropol.vibronic import acoustic_wing_density


def _mode(energy=165.0, hr=1.0, dq=0.3, **kw):
    return PhononMode(energy, hr, dq, **kw)


def _model(modes, temperature=0.0, linewidth=1.0, profile="gaussian", **kw):
    return EmitterModel(zpl_energy=1.848, equilibrium_angle=0.0,
                        equilibrium_dipole=1.0, modes=tuple(modes),
                        zpl_linewidth=linewidth, temperature=temperature,
                        zpl_profile=profile, **kw)


# ------------------------------------------------------------ occupation

def test_bose_zero_temperature():
    assert bose_occupation(10.0, 0.0) == 0.0


def test_bose_room_temperature():
    # independent evaluation with k_B * 300 K = 25.852 meV
    expected = 1.0 / (math.exp(10.0 / 25.852) - 1.0)
    assert abs(bose_occupation(10.0, 300.0) - expected) < 1e-4 * expected


def test_bose_cryogenic_negligible():
    assert bose_occupation(10.0, 6.0) < 1e-8


def test_bose_validation():
    with pytest.raises(ValidationError):
        bose_occupation(-1.0, 300.0)
    with pytest.raises(ValidationError):
        bose_occupation(10.0, -1.0)
    with pytest.raises(ValidationError):
        bose_occupation(np.nan, 300.0)


# ----------------------------------------------------------- debye-waller

def test_debye_waller_t0_single_mode():
    w = debye_waller([_mode(hr=2.71)], 0.0)
    assert abs(w - math.exp(-2.71)) < 1e-12


def test_debye_waller_t0_is_exp_total_hr():
    modes = [_mode(100.0, 0.4), _mode(150.0, 0.9), _mode(170.0, 0.2)]
    assert abs(debye_waller(modes, 0.0) - math.exp(-1.5)) < 1e-12


def test_debye_waller_monotone_in_temperature():
    modes = [_mode(50.0, 0.8), _mode(165.0, 1.2)]
    vals = [debye_waller(modes, t) for t in (0.0, 6.0, 77.0, 300.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[1]   # strictly smaller at 300 K than at 6 K


def test_debye_waller_monotone_in_coupling():
    w1 = debye_waller([_mode(hr=1.0)], 300.0)
    w2 = debye_waller([_mode(hr=1.5)], 300.0)
    assert w2 < w1


# --------------------------------------------------------------- total dq

def test_total_dq_single_mode():
    assert abs(total_dq([_mode(dq=0.42)]) - 0.42) < 1e-15


def test_total_dq_pythagorean():
    assert abs(total_dq([_mode(dq=0.3), _mode(dq=0.4)]) - 0.5) < 1e-15


def test_total_dq_empty():
    assert total_dq([]) == 0.0


# -------------------------------------------------------- spectral function

def test_spectral_function_single_mode_area():
    grid = make_grid(100.0, 230.0, 1301)
    spec = spectral_function([_mode(165.0, 1.0)], 2.0, grid)
    area = np.trapezoid(spec.intensity, grid.points)
    assert abs(area - 1.0) < 1e-6
    assert abs(grid.points[np.argmax(spec.intensity)] - 165.0) < 0.1


def test_spectral_function_total_hr_area():
    modes = [_mode(152.0, 0.40), _mode(160.0, 0.65),
             _mode(166.0, 0.80), _mode(173.0, 0.86)]
    grid = make_grid(100.0, 230.0, 2601)
    spec = spectral_function(modes, 2.0, grid)
    area = np.trapezoid(spec.intensity, grid.points)
    assert abs(area - 2.71) < 1e-5


def test_spectral_function_empty_modes():
    grid = make_grid(100.0, 200.0, 101)
    spec = spectral_function([], 2.0, grid)
    assert np.all(spec.intensity == 0.0)


def test_spectral_function_narrow_grid_names_mode():
    modes = [_mode(120.0, 0.5), _mode(190.0, 0.5)]
    grid = make_grid(100.0, 150.0, 101)
    with pytest.raises(ValidationError, match="mode 1.*190"):
        spectral_function(modes, 2.0, grid)


# ---------------------------------------------------------- lineshape (GF)

def _peak_weight(grid, dens, center_ev, half_mev):
    e = grid.points
    mask = np.abs(e - center_ev) * 1e3 <= half_mev
    return np.trapezoid(dens[mask], e[mask] * 1e3)


def test_lineshape_poisson_progression_t0():
    model = _model([_mode(165.0, 1.0)], linewidth=0.5)
    grid = full_band_grid(model, 0.1)
    spec = lineshape(model, grid)
    w = [_peak_weight(grid, spec.intensity,
                      model.zpl_energy - n * 0.165, 20.0) for n in range(3)]
    assert abs(w[1] / w[0] - 1.0) < 1e-3
    assert abs(w[2] / w[0] - 0.5) < 1e-3


def test_lineshape_zpl_weight_hr_271():
    modes = [_mode(152.0, 0.40, 0.21), _mode(160.0, 0.65, 0.21),
             _mode(166.0, 0.80, 0.21), _mode(173.0, 0.86, 0.21)]
    model = _model(modes, linewidth=1.0)
    grid = full_band_grid(model)
    spec = lineshape(model, grid)
    w = _peak_weight(grid, spec.intensity, model.zpl_energy, 40.0)
    assert abs(w - math.exp(-2.71)) < 1e-4


def test_lineshape_unit_area():
    model = _model([_mode(150.0, 1.2), _mode(80.0, 0.6)], temperature=300.0,
                   acoustic_coupling=1.5)
    grid = full_band_grid(model)
    spec = lineshape(model, grid)
    area = np.trapezoid(spec.intensity, grid.points * 1e3)
    assert abs(area - 1.0) < 1e-4


def test_lineshape_truncation_error():
    model = _model([_mode(165.0, 2.0)])
    grid = make_grid(model.zpl_energy - 0.9, model.zpl_energy + 0.01, 301)
    with pytest.raises(NumericalError):
        # grid misses deep Stokes weight at this coupling
        lineshape(_model([_mode(165.0, 6.0)]), grid)


def test_lineshape_grid_must_cover_zpl():
    model = _model([_mode(165.0, 1.0)])
    with pytest.raises(ValidationError):
        lineshape(model, make_grid(1.0, 1.5, 100))


def test_lineshape_no_anti_stokes_at_t0():
    model = _model([_mode(165.0, 1.5)], linewidth=1.0)
    grid = make_grid(model.zpl_energy - 1.5, model.zpl_energy + 0.02, 7601)
    spec = lineshape(model, grid)
    cut = model.zpl_energy + 5.0 * model.zpl_linewidth * 1e-3
    above = spec.intensity[grid.points > cut]
    assert np.all(above < 1e-6 * spec.intensity.max())


def test_detailed_balance_single_mode():
    for omega in (10.0, 50.0, 165.0):
        model = _model([_mode(omega, 0.25)], temperature=300.0,
                       linewidth=1.0)
        grid = full_band_grid(model, 0.05)
        dens = lineshape_density(model, grid)
        half = min(0.45 * omega, 20.0)
        ws = _peak_weight(grid, dens, model.zpl_energy - omega * 1e-3, half)
        was = _peak_weight(grid, dens, model.zpl_energy + omega * 1e-3, half)
        expected = math.exp(-omega / (KB_MEV * 300.0))
        assert abs(was / ws - expected) < 1e-4 * expected


# ------------------------------------------------------------- renderer

def _map_window(model, spacing_mev=0.1):
    n = int(round(60.0 / spacing_mev)) + 1
    return make_grid(model.zpl_energy - 0.030, model.zpl_energy + 0.030, n)


def _refined(model, grid, factor):
    """grid with its end points kept and the renderer's internal step
    divided by factor (the step is spacing/k, k = ceil(spacing/(lw/8)))."""
    k = math.ceil(grid.spacing * 1e3 / (model.zpl_linewidth / 8.0))
    return make_grid(grid.min_energy, grid.max_energy,
                     (grid.n_points - 1) * k * factor + 1), k * factor


@pytest.mark.parametrize("window", ["map", "full"])
@pytest.mark.parametrize("temp", [0.0, 6.0, 300.0])
@pytest.mark.parametrize("preset", ["strong_coupling", "weak_coupling"])
def test_gaussian_render_matches_eight_times_finer_step(preset, temp, window):
    # the render holds exact samples, so a finer internal step moves them
    # only by the truncated time signal (~1e-25 of the peak) and by the
    # weight beyond the span that wraps onto a slightly different period
    model = replace(load_preset(preset, temperature_k=temp),
                    zpl_profile="gaussian")
    grid = _map_window(model) if window == "map" else full_band_grid(model)
    fine, stride = _refined(model, grid, 8)
    a = lineshape_density(model, grid)
    b = lineshape_density(model, fine)[::stride]
    assert np.max(np.abs(a - b)) <= 1e-9 * a.max()


def test_single_mode_is_poisson_sticks_times_gaussian():
    s_hr, omega, lw = 1.3, 165.0, 1.0
    model = _model([_mode(omega, s_hr)], linewidth=lw)
    grid = full_band_grid(model, 0.1)
    shift = (model.zpl_energy - grid.points) * 1e3
    sigma = lw / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    ref = np.zeros_like(shift)
    for n in range(80):
        w = math.exp(-s_hr + n * math.log(s_hr) - math.lgamma(n + 1))
        ref += w * np.exp(-0.5 * ((shift - n * omega) / sigma) ** 2)
    ref /= sigma * math.sqrt(2.0 * math.pi)
    dens = lineshape_density(model, grid)
    assert np.max(np.abs(dens - ref)) <= 1e-12 * ref.max()


def _ramp_times_gaussian(x, a, sigma):
    """integral over u > 0 of u e^{-a u} N(x - u; sigma) du, closed form"""
    mu = x - a * sigma * sigma
    z = mu / sigma
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * erfc(-z / math.sqrt(2.0))
    return np.exp(-a * x + 0.5 * (a * sigma) ** 2) * (mu * cdf + sigma * phi)


def test_closed_form_wing_matches_gaussian_convolution():
    # no optical mode: the ZPL plus the two-sided wing rho(d) = w d/c^2
    # e^{-d/c} (anti-Stokes with an extra e^{-|d|/kT}), Gaussian profile
    w, c, temp = 1.5, 2.0, 300.0
    model = _model([], temperature=temp, linewidth=1.0,
                   acoustic_coupling=w, acoustic_cutoff=c)
    grid = make_grid(model.zpl_energy - 0.04, model.zpl_energy + 0.03, 141)
    shift = (model.zpl_energy - grid.points) * 1e3
    sigma = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    kt = KB_MEV * temp
    zpl = np.exp(-0.5 * (shift / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    wing = w / c ** 2 * (_ramp_times_gaussian(shift, 1.0 / c, sigma)
                         + _ramp_times_gaussian(-shift, 1.0 / c + 1.0 / kt,
                                                sigma))
    knorm = 1.0 + w + w * (kt / (kt + c)) ** 2
    ref = (zpl + wing) / knorm
    dens = lineshape_density(model, grid)
    assert np.max(np.abs(dens - ref)) <= 1e-12 * ref.max()


# largest error of the spline renderer this one replaced, against the
# reference below (ZPL +- 30 meV, 481 points)
SHIPPED_LORENTZIAN_ERROR = {0.0: 2.3e-4, 300.0: 5.6e-4}


@pytest.mark.parametrize("temp", [0.0, 300.0])
def test_lorentzian_render_against_longer_finer_reference(temp, monkeypatch):
    # the algebraic Lorentzian tail wraps around the FFT period; the
    # reference has 16x the period and 1/8 of the step
    model = replace(load_preset("strong_coupling", temperature_k=temp),
                    zpl_profile="lorentzian")
    grid = _map_window(model, 0.125)
    got = lineshape_density(model, grid)
    span = vibronic._span_estimate
    monkeypatch.setattr(vibronic, "_span_estimate",
                        lambda m: tuple(16.0 * x for x in span(m)))
    monkeypatch.setattr(vibronic, "MAX_GRID_POINTS", 2 ** 24)
    fine, stride = _refined(model, grid, 8)
    ref = lineshape_density(model, fine)[::stride]
    err = np.max(np.abs(got - ref)) / ref.max()
    assert err <= 5e-5 and err < SHIPPED_LORENTZIAN_ERROR[temp]


@pytest.mark.parametrize("profile", ["gaussian", "lorentzian"])
def test_coarse_grid_is_told_apart_from_truncation(profile):
    # a 0.3125 meV line on a 0.25 meV grid: the trapezoid error bound is
    # 2 e^{-2 pi^2 sigma^2/h^2} = 7.68e-3 (Gaussian), 2 e^{-pi Gamma/h}
    # = 3.94e-2 (Lorentzian)
    model = _model([], linewidth=0.3125, profile=profile)
    z = model.zpl_energy
    bound = "7.68e-03" if profile == "gaussian" else "3.94e-02"
    with pytest.raises(NumericalError, match=(
            "grid spacing 0.25 meV is too coarse for the 0.312 meV linewidth:"
            f" the trapezoid area is off by up to {bound} ")):
        lineshape(model, make_grid(z - 0.02, z + 0.02, 161))
    # a fine grid that ends 0.1 meV past the line center truncates it
    with pytest.raises(NumericalError, match="grid truncates") as err:
        lineshape(model, make_grid(z - 0.02, z + 0.0001, 2011))
    assert "coarse" not in str(err.value)


def test_too_fine_grid_names_the_finest_spacing():
    model = load_preset("strong_coupling", temperature_k=300.0)
    grid = make_grid(model.zpl_energy - 0.002, model.zpl_energy, 2001)
    with pytest.raises(NumericalError, match="finest grid spacing allowed "
                                             "is 1.32e-06 eV"):
        lineshape_density(model, grid)
    # no spacing helps when linewidth/8 is finer than that
    with pytest.raises(NumericalError, match="widen the linewidth"):
        lineshape_density(replace(model, zpl_linewidth=1e-3), grid)


def test_too_fine_grid_names_the_spacing_it_needs():
    # the lattice step is spacing/k <= FWHM/8: a wider line fits the 0.1 meV
    # map spacing, while a 1e-6 eV spacing must widen too
    model = replace(load_preset("strong_coupling", temperature_k=300.0),
                    zpl_linewidth=1e-3)
    with pytest.raises(NumericalError, match="widen the linewidth") as err:
        lineshape_density(model, _map_window(model))
    assert "grid spacing" not in str(err.value)
    wide = float(re.search(r"linewidth to (\S+) meV", str(err.value))[1])
    lineshape_density(replace(model, zpl_linewidth=1.01 * wide),
                      _map_window(model))
    fine = make_grid(model.zpl_energy - 0.002, model.zpl_energy, 2001)
    with pytest.raises(NumericalError, match=r"widen the linewidth to \S+ "
                       "meV and the grid spacing to 1.32e-06 eV"):
        lineshape_density(model, fine)


def _unclipped_density(model, grid):
    """lineshape_density's render, read off a second row, which the
    renderer does not clip at 0: summed, its rounding noise cancels"""
    occ = [(m, bose_occupation(m.energy_mev, model.temperature))
           for m in model.modes]
    plan = vibronic._plan(model, grid)
    tau = plan.tau
    log_g = sum(m.partial_hr * ((2.0 * n + 1.0) * np.cos(m.energy_mev * tau)
                                - 2.0 * n - 1.0
                                - 1j * np.sin(m.energy_mev * tau))
                for m, n in occ)
    g = (np.exp(log_g) * vibronic._wing_factor(model, tau)
         * vibronic._phase_ramp(-plan.lo * tau[1], tau.size))
    return vibronic._render(model, plan, np.stack([g, g]))[1]


def _cos_sin_density(model, grid):
    """lineshape_density from the generating function with a cos and a sin
    of every mode at every tau, which the phase ramps replaced
    (``_unclipped_density`` needs a mode or a wing)"""
    plan = vibronic._plan(model, grid)
    tau = plan.tau
    re, im = np.zeros_like(tau), np.zeros_like(tau)
    for m in model.modes:
        n = bose_occupation(m.energy_mev, model.temperature)
        x = m.energy_mev * tau
        re += m.partial_hr * (2.0 * n + 1.0) * (np.cos(x) - 1.0)
        im -= m.partial_hr * np.sin(x)
    return vibronic._render(model, plan, np.exp(re + 1j * im)
                            * vibronic._wing_factor(model, tau)
                            * vibronic._phase_ramp(-plan.lo * tau[1], tau.size))


@st.composite
def _render_case(draw):
    """0-3 modes, either profile, 0-500 K, with or without a wing; the full
    band, or a window within 0.5 eV of the ZPL on either side"""
    modes = [_mode(draw(st.floats(1.0, 200.0)), draw(st.floats(0.0, 3.0)))
             for _ in range(draw(st.integers(0, 3)))]
    model = _model(modes, linewidth=draw(st.floats(0.3, 3.0)),
                   profile=draw(st.sampled_from(["gaussian", "lorentzian"])),
                   temperature=draw(st.one_of(st.just(0.0),
                                              st.floats(0.0, 500.0))),
                   acoustic_coupling=draw(st.sampled_from([0.0, 0.5, 2.0])),
                   acoustic_cutoff=draw(st.floats(0.5, 5.0)))
    if draw(st.booleans()):
        return model, full_band_grid(model)
    ends = sorted(draw(st.floats(-0.5, 0.5)) for _ in range(2))
    ends[1] = max(ends[1], ends[0] + 1e-3)
    return model, make_grid(model.zpl_energy + ends[0],
                            model.zpl_energy + ends[1],
                            draw(st.integers(2, 2001)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_render_case())
def test_phase_ramp_render_matches_cos_sin_render(case):
    model, grid = case
    try:
        ref = _cos_sin_density(model, grid)
    except NumericalError as err:           # a lattice past MAX_GRID_POINTS
        if not str(err).startswith("internal grid would need"):
            raise
        reject()
    peak = _cos_sin_density(model, full_band_grid(model)).max()
    got = lineshape_density(model, grid)
    assert np.abs(got - ref).max() <= 1e-11 * peak


# windows on the far Stokes flank of the band, where the period's D_max + anti
# term binds: a period of stokes - D_min would fold the band onto them
FLANK_CASES = [
    (_model([_mode(20.0, 2.0)], acoustic_coupling=0.5, acoustic_cutoff=2.0),
     make_grid(1.848 - 0.40, 1.848 - 0.25, 601)),
    (_model([_mode(10.0, 3.0)], temperature=300.0, acoustic_coupling=0.5,
            acoustic_cutoff=2.0), make_grid(1.848 - 0.35, 1.848 - 0.20, 601))]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_render_case().filter(lambda c: c[0].zpl_profile == "gaussian"))
@example(case=FLANK_CASES[0])
@example(case=FLANK_CASES[1])
def test_gaussian_period_leaves_the_window_free_of_images(case):
    # the period spans the band past the window's near edge, not the window
    # plus the band: a reference with 4x the band's span (and the same
    # lattice start) holds the same samples up to the tails beyond the band
    model, grid = case
    span, limit = vibronic._span_estimate, vibronic.MAX_GRID_POINTS
    vibronic.MAX_GRID_POINTS = 2 ** 19      # so that the reference fits
    try:
        got = lineshape_density(model, grid)
    except NumericalError:                  # a window too fine for that
        reject()
    finally:
        vibronic.MAX_GRID_POINTS = limit
    peak = lineshape_density(model, full_band_grid(model)).max()
    vibronic._span_estimate = lambda m: tuple(4.0 * x for x in span(m))
    try:
        ref = lineshape_density(model, grid)
    finally:
        vibronic._span_estimate = span
    assert np.abs(got - ref).max() <= 1e-12 * peak


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_render_case())
def test_plan_reads_the_grid_off_its_lattice(case):
    # the lattice points read, reversed, are the grid's shifts from the ZPL;
    # a lattice step is at least about 5e-4 meV
    model, grid = case
    window = ((model.zpl_energy - grid.max_energy) * 1e3,
              (model.zpl_energy - grid.min_energy) * 1e3)
    shifts = (model.zpl_energy - grid.points) * 1e3
    for reach in (np.inf, 10.0):
        try:
            plan = vibronic._plan(model, grid, reach)
        except NumericalError as err:       # a lattice past MAX_GRID_POINTS
            if not str(err).startswith("internal grid would need"):
                raise
            reject()
        j = np.arange(plan.read.start, plan.read.stop, plan.read.step)
        assert j.size == grid.n_points and 0 <= j[0] and j[-1] < plan.n
        assert np.abs((plan.lo + plan.d * j)[::-1] - shifts).max() <= 1e-9
        assert plan.window == window


# the Lorentzian full-band lattice, which spans the grid plus the band a side
LORENTZIAN_FULL_BAND_N = {
    ("strong_coupling", 0.0): 115200, ("strong_coupling", 6.0): 115200,
    ("strong_coupling", 300.0): 122880, ("weak_coupling", 0.0): 81920,
    ("weak_coupling", 6.0): 81920, ("weak_coupling", 300.0): 92160}


@pytest.mark.parametrize("temp", [0.0, 6.0, 300.0])
@pytest.mark.parametrize("preset", ["strong_coupling", "weak_coupling"])
def test_full_band_period_is_the_aliasing_bound(preset, temp):
    # Gaussian: P = n d from the least image-free period P_min up to the
    # largest step between FFT sizes (9/8) plus the rounding of n; the
    # Lorentzian's tail keeps the longer span of the band and the window
    model = load_preset(preset, temperature_k=temp)
    assert model.zpl_profile == "gaussian"
    grid = full_band_grid(model)
    anti, stokes = vibronic._span_estimate(model)
    plan = vibronic._plan(model, grid)
    d_min, d_max = plan.window
    p_min = max(stokes - d_min, d_max + anti, d_max - d_min)
    n, d = plan.n, plan.d
    assert p_min <= n * d <= 1.125 * p_min + 2.0 * d
    lorentz = replace(model, zpl_profile="lorentzian")
    n = vibronic._plan(lorentz, full_band_grid(lorentz)).n
    assert n == LORENTZIAN_FULL_BAND_N[preset, temp]


def test_vanishing_temperature_leaves_the_mirror_wing_quiet(tmp_path):
    # (c/kT)^2 overflowed below about 1e-153 K and printed a RuntimeWarning
    # to stderr; the mirror wing there weighs at most w_as <= 1e-300 w_s
    model = load_preset("strong_coupling")
    tau = np.linspace(0.0, 100.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for temp in [0.0, 5e-324, *np.logspace(-200, -100, 401)]:
            f = vibronic._wing_factor(replace(model, temperature=temp), tau)
            assert np.all(np.isfinite(f))
    src = os.path.dirname(os.path.dirname(vibronic.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "vibropol.cli", "spectrum", "--preset",
         "strong_coupling", "--temp", "1e-200", "--out",
         str(tmp_path / "s.csv"), "--quiet"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0 and run.stderr == ""


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.one_of(st.just(2 ** 21), st.integers(1, 2 ** 21)),
       phase=st.one_of(st.sampled_from([1e5, -1e5]), st.floats(-1e5, 1e5)))
def test_phase_ramp_is_the_direct_exponential(n, phase):
    # |a n| <= 1e5; each side is within (|a| j + 8) 2^-53 of e^{-i a j}
    a, j = phase / n, np.arange(n)
    ramp = vibronic._phase_ramp(a, n)
    assert ramp.shape == (n,)
    err = np.abs(ramp - np.exp(-1j * a * j))
    assert np.all(err <= (2.0 * abs(a) * j + 16.0) * 2.0 ** -53)


@pytest.mark.parametrize("case,temp", [
    *[(p, t) for p in ("strong_coupling", "weak_coupling")
      for t in (0.0, 6.0, 300.0)], ("no wing", 300.0), ("no modes", 300.0)])
def test_full_band_leaves_out_at_most_the_tail_weight(case, temp):
    model = load_preset(case if case.endswith("coupling") else
                        "strong_coupling", temperature_k=temp)
    if case == "no wing":
        model = replace(model, acoustic_coupling=0.0)
    if case == "no modes":
        model = replace(model, modes=())
    anti, stokes = vibronic._span_estimate(model)
    grid = make_grid(model.zpl_energy - 4e-3 * stokes,
                     model.zpl_energy + 4e-3 * anti,
                     int(16.0 * (anti + stokes)) + 1)     # 0.25 meV or finer
    dens = _unclipped_density(model, grid)
    shift = (model.zpl_energy - grid.points) * 1e3
    h = grid.spacing * 1e3
    assert dens[shift >= stokes].sum() * h <= vibronic.TAIL_WEIGHT
    assert dens[shift <= -anti].sum() * h <= vibronic.TAIL_WEIGHT


@pytest.mark.parametrize("preset", ["strong_coupling", "weak_coupling"])
def test_cold_full_band_is_the_zero_kelvin_band(preset):
    # the 6 K anti-Stokes weight lies within about 15 meV of the ZPL
    cold, zero = (full_band_grid(load_preset(preset, temperature_k=t))
                  for t in (6.0, 0.0))
    assert abs(cold.n_points - zero.n_points) <= 0.01 * zero.n_points


# the Stokes span the two-sided search gave, before the cold Lorentzian's
# anti-Stokes side stopped being searched
COLD_LORENTZIAN_STOKES = {"strong_coupling": 6031.162410756707,
                          "weak_coupling": 4378.487005747711}


@pytest.mark.parametrize("preset", ["strong_coupling", "weak_coupling"])
def test_cold_lorentzian_band_searches_only_the_stokes_side(preset,
                                                            monkeypatch):
    # at 0 K a Lorentzian ZPL is the only anti-Stokes shift: that side is
    # its 500 FWHM, with no search running t off to overflow
    model = replace(load_preset(preset, temperature_k=0.0),
                    zpl_profile="lorentzian")
    rows, cgf = [], vibronic._mode_cgf

    def counted(s, n, x):
        rows.append(x.shape[0])
        return cgf(s, n, x)

    monkeypatch.setattr(vibronic, "_mode_cgf", counted)
    anti, stokes = vibronic._span_estimate(model)
    assert anti == 500.0 * model.zpl_linewidth
    assert stokes == pytest.approx(COLD_LORENTZIAN_STOKES[preset], rel=1e-14)
    assert rows == [1, 1, 1]        # 3 evaluations of the Stokes side alone


def _least_bound(cgf, rate):
    """min over t of (K(t) + rate)/t per row: 62801 points over the 628
    decades of double t, then Brent's method about the least of them,
    between its neighbours where the bound is finite"""
    def bound(log_t):
        t = 10.0 ** np.asarray(log_t, dtype=float)
        with np.errstate(all="ignore"):
            f = (cgf(t) + rate) / t
        return np.where(np.isnan(f), np.inf, f)

    log_t = np.linspace(-320.0, 308.0, 62801)
    f = bound(log_t)
    out = []
    for k, row in enumerate(np.atleast_2d(f)):
        i = int(np.argmin(row))
        # the bound is inf past a pole of K; a finite neighbour lies before
        # it, so Brent's steps never meet an inf
        lo, hi = (j if 0 <= j < row.size and np.isfinite(row[j]) else i
                  for j in (i - 1, i + 1))
        least = row[i]
        if lo < hi:
            r = minimize_scalar(
                lambda x: float(np.atleast_2d(bound([x]))[k, 0]),
                bounds=(log_t[lo], log_t[hi]), method="bounded",
                options={"xatol": 1e-13})
            assert not np.isnan(r.fun), (lo, hi)
            least = min(least, r.fun)
        out.append(max(least, 0.0))
    return np.array(out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(s=st.one_of(st.just(1e6), st.floats(-6.0, 6.0).map(lambda x: 10 ** x)),
       w=st.floats(0.5, 200.0),
       temp=st.one_of(st.just(0.0), st.just(1e300), st.floats(0.0, 1000.0)),
       sigma=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
       c=st.one_of(st.just(0.0), st.floats(0.5, 5.0)),
       rate=st.floats(1.0, 60.0))
def test_chernoff_search_finds_the_least_bound(s, w, temp, sigma, c, rate):
    # a mode, a Gaussian and a Gamma(2, c) shift (CGF -2 ln(1 - ct), inf
    # past t = 1/c), on both sides: each x is the bound at some t, never
    # below the least one and within 1% of it (below 1e-290 meV, both are 0)
    n = bose_occupation(w, temp)

    def cgf(t):
        t = t * np.array([[-1.0], [1.0]])
        return (vibronic._mode_cgf(s, n, w * t) + (sigma * t) ** 2 / 2
                - 2.0 * np.log((1.0 - c * t).clip(0.0)))

    kappa2 = s * (2.0 * n + 1.0) * w * w + sigma ** 2 + 2.0 * c * c
    got = vibronic._chernoff(cgf, kappa2, rate)
    least = _least_bound(cgf, rate)
    assert np.all(got >= least * (1.0 - 1e-12) - 1e-290)
    assert np.all(got <= 1.01 * least + 1e-290)


def test_cli_import_leaves_out_scipy_interpolate():
    # a fresh interpreter, importing the same vibropol as this suite: no
    # scipy module at all is on the import path
    code = ("import sys, vibropol.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(vibronic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


# -------------------------------------------------------------- wing model

def test_acoustic_wing_sides():
    model = _model([_mode()], temperature=300.0, acoustic_coupling=2.0,
                   acoustic_cutoff=2.0)
    d = 1.3
    rho_s = acoustic_wing_density(model, d)
    rho_as = acoustic_wing_density(model, -d)
    assert abs(rho_as / rho_s - math.exp(-d / (KB_MEV * 300.0))) < 1e-12
    cold = _model([_mode()], temperature=0.0, acoustic_coupling=2.0)
    assert acoustic_wing_density(cold, -d) == 0.0


# ----------------------------------------------------------- oracle (FC)

def test_oracle_single_mode_t0():
    model = _model([_mode(165.0, 0.5)], linewidth=0.8)
    grid = full_band_grid(model, 0.3)
    a = lineshape(model, grid).intensity
    b = lineshape_bruteforce(model, grid, max_quanta=20).intensity
    mask = a > 1e-8 * a.max()
    assert np.max(np.abs(a[mask] - b[mask]) / a[mask]) < 1e-6


def test_oracle_three_modes_room_temperature():
    model = _model([_mode(80.0, 0.8), _mode(140.0, 0.5), _mode(170.0, 1.1)],
                   temperature=300.0, linewidth=1.2)
    grid = full_band_grid(model, 0.5)
    a = lineshape(model, grid).intensity
    b = lineshape_bruteforce(model, grid, max_quanta=30).intensity
    mask = a > 1e-8 * a.max()
    assert np.max(np.abs(a[mask] - b[mask]) / a[mask]) < 1e-5


def test_oracle_zero_coupling_pure_profile():
    model = _model([_mode(165.0, 0.0)], linewidth=1.0)
    grid = make_grid(model.zpl_energy - 0.9, model.zpl_energy + 0.06, 2001)
    spec = lineshape_bruteforce(model, grid, max_quanta=5)
    area = np.trapezoid(spec.intensity, grid.points * 1e3)
    assert abs(area - 1.0) < 1e-4
    ipk = np.argmax(spec.intensity)
    assert abs(grid.points[ipk] - model.zpl_energy) < 1e-3


def test_oracle_mode_count_guard():
    modes = [_mode(50.0 + 10 * k, 0.2) for k in range(4)]
    model = _model(modes)
    with pytest.raises(ValidationError):
        lineshape_bruteforce(model, full_band_grid(model), max_quanta=5)


def test_oracle_max_quanta_guard():
    model = _model([_mode()])
    with pytest.raises(ValidationError):
        lineshape_bruteforce(model, full_band_grid(model), max_quanta=0)
    with pytest.raises(ValidationError):
        lineshape_bruteforce(model, full_band_grid(model), max_quanta=41)


def _scipy_line_weights(mode, temperature, max_quanta):
    """The former per-level loop: one scipy Franck-Condon factor per level
    pair, walking final levels until the level's population is used up."""
    def fc(lo, hi, s):
        if s == 0.0:
            return 1.0 if hi == lo else 0.0
        m = hi - lo
        lag = eval_genlaguerre(lo, m, s)
        logw = -s + m * np.log(s) + gammaln(lo + 1) - gammaln(hi + 1)
        return float(np.exp(logw) * lag * lag)

    n = bose_occupation(mode.energy_mev, temperature)
    q = n / (n + 1.0)
    i_max = int(np.ceil(np.log(1e-16) / np.log(q))) if q > 0 else 0
    assert i_max <= 170
    weights = {}
    for i, p in enumerate((1.0 - q) * q ** np.arange(i_max + 1)):
        acc = 0.0
        for f in range(0, i + max_quanta + 1):
            w = p * fc(min(i, f), max(i, f), mode.partial_hr)
            if abs(f - i) <= max_quanta:
                weights[f - i] = weights.get(f - i, 0.0) + w
            acc += w
            if f > i + 2 and acc > p * (1.0 - 1e-15):
                break
    return weights


def _line_weight_gap(mode, temperature, max_quanta):
    """(largest relative gap on weights above 1e-9 of the total, largest
    absolute gap over the total) on the union of both m sets."""
    ref = _scipy_line_weights(mode, temperature, max_quanta)
    ms, ws = vibronic.mode_line_weights(mode, temperature)
    assert np.all(ws > 0)
    ms, ws = ms[np.abs(ms) <= max_quanta], ws[np.abs(ms) <= max_quanta]
    got = dict(zip(ms.tolist(), ws.tolist()))
    union = sorted(set(ref) | set(got))
    a = np.array([ref.get(m, 0.0) for m in union])
    b = np.array([got.get(m, 0.0) for m in union])
    total = a.sum()
    big = a > 1e-9 * total
    return (float(np.max(np.abs(a - b)[big] / a[big])),
            float(np.max(np.abs(a - b)) / total))


@pytest.mark.parametrize("max_quanta", [12, 40])
@pytest.mark.parametrize("temp", [0.0, 6.0, 300.0])
def test_line_weights_match_scipy_per_level_loop(temp, max_quanta):
    for preset in ("strong_coupling", "weak_coupling"):
        for mode in load_preset(preset).modes:
            rel, _ = _line_weight_gap(mode, temp, max_quanta)
            assert rel <= 1e-13


def test_line_weights_match_scipy_loop_over_extreme_modes():
    worst = 0.0
    for w in (1.0, 10.0, 40.0, 150.0):
        for s in (0.01, 0.5, 3.0, 20.0):
            for temp in (0.0, 30.0, 300.0, 1000.0):
                if w < 0.2166 * KB_MEV * temp:
                    continue        # beyond the reference loop's 170 levels
                worst = max(worst, _line_weight_gap(_mode(w, s), temp, 40)[1])
    assert worst <= 1e-14


def test_line_weights_are_poisson_balanced_and_bessel():
    # T = 0: the Poisson weights e^{-S} S^m / m!
    for s in (0.01, 0.5, 3.0, 20.0):
        ms, ws = vibronic.mode_line_weights(_mode(80.0, s), 0.0)
        ref = np.array([math.exp(-s) * s ** m / math.factorial(m)
                        for m in ms.tolist()])
        assert np.all(ms >= 0) and np.all(np.abs(ws - ref) <= 1e-14 * ref)
    # detailed balance W_{-m} = q^m W_m, q = e^{-w/kT}
    for w, s, temp in ((20.0, 3.0, 300.0), (160.0, 1.0, 1000.0),
                       (0.5, 0.5, 300.0)):
        ms, ws = vibronic.mode_line_weights(_mode(w, s), temp)
        n = bose_occupation(w, temp)
        got = dict(zip(ms.tolist(), ws.tolist()))
        for m in range(1, ms.max() + 1):
            if -m in got:
                assert abs(got[-m] - (n / (n + 1.0)) ** m * got[m]) <= (
                    1e-14 * got[-m])
    # modes past the former 170-level limit (0.5 meV at 300 K needed
    # 1905 levels): W_m = e^{-S(2n+1) + x} ((n+1)/n)^{m/2} ive(m, x),
    # x = 2 S sqrt(n (n+1))
    for s in (0.05, 0.5, 5.0):
        ms, ws = vibronic.mode_line_weights(_mode(0.5, s), 300.0)
        n = bose_occupation(0.5, 300.0)
        x = 2.0 * s * math.sqrt(n * (n + 1.0))
        ref = (np.exp(x - s * (2.0 * n + 1.0) + 0.5 * ms * np.log1p(1.0 / n))
               * ive(np.abs(ms), x))
        big = ref > 1e-9
        assert abs(ws.sum() - 1.0) <= 1e-15
        assert np.max(np.abs(ws[big] - ref[big]) / ref[big]) <= 1e-13
