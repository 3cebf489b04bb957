import math

import numpy as np
import pytest

import vibropol.dipole as dipole
import vibropol.polarimetry as polarimetry
from vibropol import (MalusFit, PolarizationEllipse, StokesVector,
                      ValidationError, analyze_map, condon_limit,
                      ellipse_to_stokes, extract_stokes_rqwp, fit_malus,
                      load_preset, make_grid, malus_intensity,
                      rqwp_intensity, simulate_polarization_map,
                      stokes_to_ellipse)
from vibropol.core import OrientationCurve, PolarizationMap, slice_map


# ------------------------------------------------------------- malus law

def test_malus_intensity_landmarks():
    fit = MalusFit(theta0=30.0, i_max=100.0, i_min=20.0, dolp=100.0 / 140.0,
                   rms_residual=0.0)
    assert abs(malus_intensity(30.0, fit) - 120.0) < 1e-12
    assert abs(malus_intensity(120.0, fit) - 20.0) < 1e-12
    assert abs(malus_intensity(75.0, fit) - 70.0) < 1e-12


def test_malus_fit_exact_example():
    fit0 = MalusFit(theta0=30.0, i_max=100.0, i_min=20.0,
                    dolp=100.0 / 140.0, rms_residual=0.0)
    angles = np.arange(12) * 15.0
    fit = fit_malus(angles, malus_intensity(angles, fit0))
    assert abs(fit.theta0 - 30.0) < 1e-9
    assert abs(fit.dolp - 100.0 / 140.0) < 1e-9
    assert abs(fit.i_max - 100.0) < 1e-9
    assert abs(fit.i_min - 20.0) < 1e-9


def test_malus_fit_constant_intensity():
    angles = np.arange(8) * 22.5
    fit = fit_malus(angles, np.full(8, 7.0))
    assert np.isnan(fit.theta0)
    assert fit.dolp == 0.0


def test_malus_fit_scaling_invariance():
    rng = np.random.default_rng(11)
    angles = np.arange(10) * 18.0
    fit0 = MalusFit(theta0=-40.0, i_max=55.0, i_min=5.0, dolp=55.0 / 65.0,
                    rms_residual=0.0)
    inten = malus_intensity(angles, fit0) + rng.normal(0, 0.5, 10).clip(-2, 2)
    inten = np.clip(inten, 0.0, None)
    a = fit_malus(angles, inten)
    b = fit_malus(angles, 3.7 * inten)
    assert abs(a.theta0 - b.theta0) < 1e-12
    assert abs(a.dolp - b.dolp) < 1e-12
    assert abs(b.i_max - 3.7 * a.i_max) < 1e-9


def test_malus_fit_validation():
    with pytest.raises(ValidationError):
        fit_malus([0.0, 30.0, 60.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        fit_malus([0.0, 10.0, 20.0, 30.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        # all angles congruent mod 90 deg: rank-deficient design
        fit_malus([0.0, 90.0, 180.0, 270.0], [1.0, 1.0, 1.0, 1.0])


def test_malus_fit_poisson_monte_carlo():
    rng = np.random.default_rng(2024)
    angles = np.arange(36) * 10.0
    truth = MalusFit(theta0=25.0, i_max=2 * 0.7 / 1.7 * 10000.0,
                     i_min=(1 - 0.7) / 1.7 * 10000.0,
                     dolp=0.7, rms_residual=0.0)
    err_theta, err_dolp = [], []
    for _ in range(500):
        counts = rng.poisson(malus_intensity(angles, truth))
        fit = fit_malus(angles, counts.astype(float))
        d = (fit.theta0 - 25.0 + 90.0) % 180.0 - 90.0
        err_theta.append(abs(d))
        err_dolp.append(abs(fit.dolp - 0.7))
    assert np.quantile(err_theta, 0.95) < 1.5
    assert np.quantile(err_dolp, 0.95) < 0.03


# ------------------------------------------------------ stokes / ellipse

def test_ellipse_to_stokes_landmarks():
    s = ellipse_to_stokes(PolarizationEllipse(1.0, 0.0, 0.0), 1.0)
    assert np.allclose([s.s0, s.s1, s.s2, s.s3], [1, 1, 0, 0], atol=1e-12)
    s = ellipse_to_stokes(PolarizationEllipse(1.0, 45.0, 0.0), 1.0)
    assert np.allclose([s.s0, s.s1, s.s2, s.s3], [1, 0, 1, 0], atol=1e-12)
    s = ellipse_to_stokes(PolarizationEllipse(1.0, 17.0, 45.0), 1.0)
    assert np.allclose([s.s0, s.s1, s.s2, s.s3], [1, 0, 0, 1], atol=1e-12)


def test_stokes_to_ellipse_landmarks():
    e = stokes_to_ellipse(StokesVector(1.0, 1.0, 0.0, 0.0))
    assert (e.dop, e.psi, e.chi) == (1.0, 0.0, 0.0)
    e = stokes_to_ellipse(StokesVector(1.0, 0.0, 0.0, -1.0))
    assert abs(e.dop - 1.0) < 1e-12 and abs(e.chi + 45.0) < 1e-12


def test_ellipse_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dop = rng.uniform(0.05, 1.0)
        psi = rng.uniform(-90.0, 90.0)
        chi = rng.uniform(-44.0, 44.0)
        e0 = PolarizationEllipse(dop, psi, chi)
        e1 = stokes_to_ellipse(ellipse_to_stokes(e0, rng.uniform(0.5, 5.0)))
        assert abs(e1.dop - e0.dop) < 1e-12
        assert abs(e1.psi - e0.psi) < 1e-12
        assert abs(e1.chi - e0.chi) < 1e-12


def test_stokes_near_physical_round_trip():
    n = math.sqrt(0.49 ** 2 + 0.49 ** 2 + 0.1 ** 2)
    s0 = StokesVector(1.0, 0.49 / n * 0.9, 0.49 / n * 0.9, 0.1 / n * 0.9)
    s1 = ellipse_to_stokes(stokes_to_ellipse(s0), 1.0)
    for a, b in zip((s0.s1, s0.s2, s0.s3), (s1.s1, s1.s2, s1.s3)):
        assert abs(a - b) < 1e-12


# ----------------------------------------------------------------- rqwp

def test_rqwp_intensity_landmarks():
    assert np.allclose(rqwp_intensity(StokesVector(1, 0, 0, 0),
                                      np.arange(0, 360, 30)), 0.5)
    s = StokesVector(1, 1, 0, 0)
    assert abs(rqwp_intensity(s, 0.0) - 1.0) < 1e-12
    assert abs(rqwp_intensity(s, 45.0) - 0.5) < 1e-12
    circ = StokesVector(1, 0, 0, 1)
    assert abs(rqwp_intensity(circ, 45.0)) < 1e-12


def test_rqwp_extraction_exact():
    angles = np.arange(16) * 22.5
    s0 = StokesVector(1.0, 0.6, 0.3, 0.2)
    s = extract_stokes_rqwp(angles, rqwp_intensity(s0, angles))
    for a, b in zip((s.s0, s.s1, s.s2, s.s3), (1.0, 0.6, 0.3, 0.2)):
        assert abs(a - b) < 1e-12


def test_rqwp_constant_trace_unpolarized():
    angles = np.arange(12) * 30.0
    s = extract_stokes_rqwp(angles, np.full(12, 0.5))
    assert np.allclose([s.s0, s.s1, s.s2, s.s3], [1, 0, 0, 0], atol=1e-12)


def test_rqwp_composition_gives_psi_and_dop():
    s0 = StokesVector(1.0, 0.7 * math.cos(math.radians(60.0)),
                      0.7 * math.sin(math.radians(60.0)), 0.0)
    angles = np.arange(24) * 15.0
    e = stokes_to_ellipse(extract_stokes_rqwp(
        angles, rqwp_intensity(s0, angles)))
    assert abs(e.psi - 30.0) < 1e-10
    assert abs(e.dop - 0.7) < 1e-12


def test_rqwp_validation():
    with pytest.raises(ValidationError):
        extract_stokes_rqwp(np.arange(6) * 60.0, np.ones(6))
    with pytest.raises(ValidationError):
        # half rotation only
        extract_stokes_rqwp(np.arange(8) * 22.5, np.ones(8))
    with pytest.raises(ValidationError):
        extract_stokes_rqwp(np.array([0, 30, 70, 120, 180, 240, 300, 330],
                                     dtype=float), np.ones(8))


# ----------------------------------------------------------- map pipeline

def _zpl_grid(model, half_mev=30.0, n=601):
    return make_grid(model.zpl_energy - half_mev * 1e-3,
                     model.zpl_energy + half_mev * 1e-3, n)


def test_condon_map_identical_theta0():
    model = condon_limit(load_preset("weak_coupling"))
    grid = _zpl_grid(model, n=241)
    angles = np.arange(0.0, 180.0, 15.0)
    pmap = simulate_polarization_map(model, grid, angles)
    curve = analyze_map(pmap)
    v = curve.valid
    assert np.any(v)
    assert np.ptp(curve.psi[v]) < 1e-9
    assert np.all(np.abs(curve.dolp[v] - 1.0) < 1e-9)


def test_noiseless_round_trip_analyzer():
    from vibropol import orientation_vs_energy, wrap_orientation
    from vibropol.polarimetry import binned_forward_psi
    model = load_preset("strong_coupling")
    grid = _zpl_grid(model)
    angles = np.arange(0.0, 180.0, 10.0)
    pmap = simulate_polarization_map(model, grid, angles)
    curve = analyze_map(pmap)
    fwd = binned_forward_psi(orientation_vs_energy(model, grid), 4.0)
    devs = [abs(wrap_orientation(curve.psi[i] - fwd[i]))
            for i in range(curve.grid.n_points)
            if curve.valid[i] and np.isfinite(fwd[i])]
    assert devs and max(devs) < 0.5


def test_noiseless_round_trip_rqwp():
    model = load_preset("strong_coupling")
    grid = _zpl_grid(model, n=301)
    angles = np.arange(0.0, 360.0, 15.0)
    pmap = simulate_polarization_map(model, grid, angles, mode="rqwp")
    curve = analyze_map(pmap, mode="rqwp")
    v = curve.valid
    assert np.any(v)
    # linear channel mixture: chi identically zero
    assert np.all(np.abs(curve.chi[v]) < 1e-9)


def test_poisson_round_trip_within_3_degrees():
    model = load_preset("strong_coupling")
    grid = _zpl_grid(model)
    angles = np.arange(0.0, 180.0, 10.0)
    clean = simulate_polarization_map(model, grid, angles)
    noisy = simulate_polarization_map(model, grid, angles, noise="poisson",
                                      seed=42)
    ref = analyze_map(clean)
    got = analyze_map(noisy)
    strong = got.valid & ref.valid & (ref.weight > 0.1 * ref.weight.max())
    assert np.any(strong)
    d = (got.psi[strong] - ref.psi[strong] + 90.0) % 180.0 - 90.0
    assert np.max(np.abs(d)) < 3.0


def test_map_determinism():
    model = load_preset("weak_coupling")
    grid = _zpl_grid(model, n=121)
    angles = np.arange(0.0, 180.0, 20.0)
    a = simulate_polarization_map(model, grid, angles, noise="poisson",
                                  seed=7)
    b = simulate_polarization_map(model, grid, angles, noise="poisson",
                                  seed=7)
    assert np.array_equal(a.intensity, b.intensity)


def test_zero_signal_map_all_invalid():
    grid = make_grid(1.8, 1.9, 101)
    angles = np.arange(0.0, 180.0, 15.0)
    pmap = PolarizationMap(grid, angles, np.zeros((101, angles.size)))
    curve = analyze_map(pmap)
    assert not np.any(curve.valid)


def test_dolp_band_room_temperature():
    model = load_preset("strong_coupling")
    pmap = simulate_polarization_map(model, _zpl_grid(model),
                                     np.arange(0.0, 180.0, 10.0))
    curve = analyze_map(pmap)
    d = curve.dolp[curve.valid]
    assert np.all(d >= 0.55) and np.all(d <= 0.85)


def test_extracted_stokes_physicality():
    model = load_preset("strong_coupling")
    grid = _zpl_grid(model, n=301)
    angles = np.arange(0.0, 360.0, 15.0)
    pmap = simulate_polarization_map(model, grid, angles, mode="rqwp")
    from vibropol.core import slice_map
    for s in slice_map(pmap, 4.0):
        if s.partial or s.profile.sum() <= 25.0:
            continue
        sv = extract_stokes_rqwp(pmap.angles, s.profile)
        assert sv.physicality_deficit <= 1e-9 * sv.s0


def test_roundtrip_computes_each_forward_curve_once(monkeypatch):
    # one curve per (preset, T) serves both of its maps, plus three for the
    # OPSB offset and the intra-OPSB sweep (each map made its own: 15)
    calls = []

    def counted(model, grid):
        calls.append(grid.n_points)
        return orientation(model, grid)

    orientation = dipole.orientation_vs_energy
    monkeypatch.setattr(dipole, "orientation_vs_energy", counted)
    monkeypatch.setattr(polarimetry, "orientation_vs_energy", counted)
    rows = polarimetry.roundtrip_checks()
    assert len(calls) == 7 and all(ok for *_, ok in rows)


# ------------------------------------------------------- one Stokes path

def test_analyzer_map_dolp_is_capped_where_the_fit_floor_is_unphysical():
    # strong preset at 6 K, Poisson seed 7: the lowest bin's Malus fit has
    # i_min < 0, and the map's DOLP read its uncapped 1.338 there
    model = load_preset("strong_coupling", temperature_k=6.0)
    angles = polarimetry.default_map_angles("analyzer")
    pmap = simulate_polarization_map(
        model, polarimetry.default_map_grid(model), angles, noise="poisson",
        seed=7)
    curve = analyze_map(pmap)
    assert np.all(curve.dolp <= 1.0) and curve.dolp[0] == 1.0
    fit = fit_malus(angles, slice_map(pmap, 4.0)[0].profile)
    assert fit.unphysical_floor and fit.dolp > 1.3


def test_circular_state_has_no_orientation():
    # s1 = s2 = 0: the RQWP inversion leaves rounding residue in s1, s2,
    # whose atan2 was read as psi = 63.43 deg in every bin of the map
    state = StokesVector(1.0, 0.0, 0.0, 0.8)
    e = stokes_to_ellipse(state)
    assert np.isnan(e.psi) and (e.dop, e.chi) == (0.8, 45.0)
    angles = polarimetry.default_map_angles("rqwp")
    trace = 1e3 * rqwp_intensity(state, angles)
    assert np.isnan(stokes_to_ellipse(extract_stokes_rqwp(angles, trace)).psi)
    pmap = PolarizationMap(make_grid(1.80, 1.90, 101), angles,
                           np.tile(trace, (101, 1)))
    curve = analyze_map(pmap, mode="rqwp")
    assert not np.any(curve.valid) and np.all(np.isnan(curve.psi))


@pytest.mark.parametrize("mode", ["analyzer", "rqwp"])
def test_map_bins_are_the_single_trace_analyses(mode):
    # analyze_map inverts every bin at once; each bin's (psi, DOLP) is the
    # single-trace fit's, DOLP capped at 1, and both modes fill the rms
    model = load_preset("weak_coupling", temperature_k=6.0)
    angles = polarimetry.default_map_angles(mode)
    pmap = simulate_polarization_map(model, _zpl_grid(model, n=121), angles,
                                     mode=mode, noise="poisson", seed=3)
    curve = analyze_map(pmap, mode=mode)
    assert np.any(curve.valid)
    bins = [s for s in slice_map(pmap, 4.0) if not s.partial]
    for i in np.flatnonzero(curve.valid):
        if mode == "analyzer":
            fit = fit_malus(angles, bins[i].profile)
            psi, dolp, rms = fit.theta0, min(fit.dolp, 1.0), fit.rms_residual
        else:
            s = extract_stokes_rqwp(angles, bins[i].profile)
            e = stokes_to_ellipse(s)
            psi, dolp = e.psi, e.dop
            rms = np.sqrt(np.mean((bins[i].profile
                                   - rqwp_intensity(s, angles)) ** 2))
        assert abs(curve.psi[i] - psi) < 1e-9
        assert abs(curve.dolp[i] - dolp) < 1e-12
        assert 0.0 < curve.rms_residual[i] == pytest.approx(rms, rel=1e-9)


def test_analyze_map_needs_two_full_bins():
    # a 10 meV map in 6 meV bins: one full bin and a 4 meV partial one
    grid = make_grid(1.600, 1.610, 11)
    angles = np.arange(0.0, 180.0, 10.0)
    pmap = PolarizationMap(grid, angles, np.ones((11, angles.size)))
    assert [s.partial for s in slice_map(pmap, 6.0)] == [False, True]
    with pytest.raises(ValidationError,
                       match="map yields fewer than 2 full bins"):
        analyze_map(pmap, bin_width_mev=6.0)
    assert analyze_map(pmap, bin_width_mev=5.0).grid.n_points == 2


def test_binned_forward_psi_is_on_the_canonical_branch():
    # psi = 90 deg gives s2 = +1e-16 s1: its atan2 read +90, off [-90, 90)
    grid = make_grid(1.80, 1.82, 21)
    curve = OrientationCurve(grid, np.full(21, 90.0), np.full(21, 0.5),
                             np.ones(21), np.ones(21, dtype=bool))
    assert np.all(polarimetry.binned_forward_psi(curve) == -90.0)


def test_malus_intensity_of_an_unpolarized_fit_is_its_floor():
    fit = fit_malus(np.arange(8) * 22.5, np.full(8, 7.0))
    assert np.allclose(malus_intensity(np.arange(4) * 45.0, fit), 7.0,
                       rtol=1e-12)
