"""Acceptance suite: the twelve headline checks for the toolkit.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and enforces its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np

from vibropol import (KB_MEV, background_rate_for_fraction, condon_limit,
                      full_band_grid, g2_histogram, g2_zero_expected,
                      lineshape, lineshape_bruteforce, lineshape_density,
                      load_preset, make_grid, mode_rotations, opsb_offset,
                      orientation_vs_energy, simulate_stream, total_dq,
                      wrap_orientation)
from vibropol.polarimetry import (MalusFit, StokesVector, analyze_map,
                                  extract_stokes_rqwp, fit_malus,
                                  malus_intensity, rqwp_intensity,
                                  simulate_polarization_map)


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _zpl_weight(model):
    grid = full_band_grid(model)
    spec = lineshape(model, grid)
    e = grid.points
    mask = np.abs(e - model.zpl_energy) * 1e3 <= 40.0
    return float(np.trapezoid(spec.intensity[mask], e[mask] * 1e3))


def test_01_debye_waller_weights():
    results = []
    for name, hr in (("weak_coupling", 2.71), ("strong_coupling", 5.96)):
        t0 = time.perf_counter()
        w = _zpl_weight(load_preset(name, temperature_k=0.0))
        dt = time.perf_counter() - t0
        err = abs(w - math.exp(-hr))
        results.append((name, w, err, dt))
    ok = all(err < 1e-4 and dt < 1.0 for _, _, err, dt in results)
    detail = "; ".join(f"{n}: w={w:.6f} err={e:.1e} {t:.2f}s"
                       for n, w, e, t in results)
    _report(1, "T=0 ZPL weights, tol 1e-4 abs, <1s each", ok, detail)


def test_02_dq_aggregation():
    vals = {name: total_dq(load_preset(name).modes)
            for name in ("weak_coupling", "strong_coupling")}
    ok = (abs(vals["weak_coupling"] - 0.42) < 1e-6
          and abs(vals["strong_coupling"] - 0.87) < 1e-6)
    _report(2, "total dQ 0.42/0.87, tol 1e-6",
            ok, f"weak={vals['weak_coupling']:.8f} "
                f"strong={vals['strong_coupling']:.8f}")


def test_03_mode_rotation_maxima():
    weak = max(abs(r.delta_theta)
               for r in mode_rotations(load_preset("weak_coupling")))
    strong = max(abs(r.delta_theta)
                 for r in mode_rotations(load_preset("strong_coupling")))
    ok = abs(weak - 2.7) < 0.01 and abs(strong - 10.0) < 0.5
    _report(3, "max |dtheta| 2.7 +-0.01 / 10 +-0.5 deg",
            ok, f"weak={weak:.4f} strong={strong:.4f}")


def _analyzed_curve(temperature):
    model = load_preset("strong_coupling", temperature_k=temperature)
    grid = make_grid(model.zpl_energy - 0.030, model.zpl_energy + 0.030, 601)
    pmap = simulate_polarization_map(model, grid,
                                     np.arange(0.0, 180.0, 10.0),
                                     counts_per_point=1e4, noise="none")
    return analyze_map(pmap, bin_width_mev=4.0)


def test_04_room_temperature_sweep():
    t0 = time.perf_counter()
    sweep = _analyzed_curve(300.0).sweep()
    dt = time.perf_counter() - t0
    ok = abs(sweep - 40.0) <= 2.0 and dt < 30.0
    _report(4, "300K analyzed sweep 40 +-2 deg, <30s",
            ok, f"sweep={sweep:.3f} deg, {dt:.1f}s")


def test_05_cryogenic_suppression():
    curve = _analyzed_curve(6.0)
    sel = curve.valid & (curve.weight > 0.01 * curve.weight.max())
    sweep = float(curve.psi[sel].max() - curve.psi[sel].min())
    ok = sweep < 2.0
    _report(5, "6K sweep < 2 deg over bins > 1% peak",
            ok, f"sweep={sweep:.4f} deg")


def test_06_opsb_offsets():
    model = load_preset("strong_coupling")
    off = opsb_offset(model)
    grid = make_grid(model.zpl_energy - 0.175, model.zpl_energy - 0.155, 401)
    curve = orientation_vs_energy(model, grid)
    sel = curve.valid & (curve.weight > 0.01 * curve.weight.max())
    intra = float(curve.psi[sel].max() - curve.psi[sel].min())
    # offset sign depends on the arbitrary lab frame; magnitude is pinned
    ok = abs(abs(off) - 5.0) <= 1.0 and intra >= 20.0
    _report(6, "|OPSB offset| 5 +-1 deg, intra-band >= 20 deg",
            ok, f"offset={off:.3f} intra={intra:.2f}")


def test_07_dolp_band():
    curve = _analyzed_curve(300.0)
    d = curve.dolp[curve.valid]
    ok = bool(np.all(d >= 0.55) and np.all(d <= 0.85))
    _report(7, "recovered DOLP in [0.55, 0.85] over valid bins",
            ok, f"range=[{d.min():.3f}, {d.max():.3f}]")


def test_08_oracle_equivalence():
    from vibropol import EmitterModel, PhononMode
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n_modes = int(rng.integers(1, 4))
        modes = tuple(
            PhononMode(float(rng.uniform(50.0, 200.0)),
                       float(rng.uniform(0.0, 3.0 / n_modes)),
                       float(rng.uniform(0.1, 0.5)))
            for _ in range(n_modes))
        model = EmitterModel(
            zpl_energy=1.848, equilibrium_angle=0.0, equilibrium_dipole=1.0,
            modes=modes, zpl_linewidth=float(rng.uniform(0.8, 2.0)),
            temperature=(0.0, 6.0, 300.0)[i % 3],
            zpl_profile="gaussian",
            acoustic_coupling=float(rng.uniform(0.0, 1.0)))
        grid = full_band_grid(model, spacing_mev=0.5)
        a = lineshape(model, grid).intensity
        b = lineshape_bruteforce(model, grid, max_quanta=40).intensity
        mask = a > 1e-8 * a.max()
        worst = max(worst, float(np.max(np.abs(a[mask] - b[mask]) / a[mask])))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 60.0
    _report(8, "GF vs FC oracle, 50 random models, tol 1e-5 rel, <60s",
            ok, f"worst={worst:.2e}, {dt:.1f}s")


def test_09_polarimetry_exactness():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_malus = 0.0
    worst_rqwp = 0.0
    for _ in range(1000):
        theta0 = float(rng.uniform(-90.0, 90.0))
        i_max = float(rng.uniform(0.5, 100.0))
        i_min = float(rng.uniform(0.0, 0.5 * i_max))
        truth = MalusFit(theta0, i_max, i_min,
                         i_max / (i_max + 2.0 * i_min), 0.0)
        n = int(rng.integers(5, 25))
        angles = rng.uniform(0.0, 180.0 / n, 1) + np.arange(n) * (180.0 / n)
        fit = fit_malus(angles, malus_intensity(angles, truth))
        worst_malus = max(worst_malus,
                          abs(wrap_orientation(fit.theta0 - theta0)),
                          abs(fit.i_max - i_max), abs(fit.i_min - i_min))

        s0 = float(rng.uniform(0.5, 5.0))
        p = rng.normal(size=3)
        p *= rng.uniform(0.0, 1.0) * s0 / np.linalg.norm(p)
        truth_s = StokesVector(s0, *p)
        m = int(rng.integers(2, 5)) * 8
        qa = np.arange(m) * (360.0 / m)
        got = extract_stokes_rqwp(qa, rqwp_intensity(truth_s, qa))
        worst_rqwp = max(worst_rqwp, abs(got.s0 - s0),
                         abs(got.s1 - p[0]), abs(got.s2 - p[1]),
                         abs(got.s3 - p[2]))
    dt = time.perf_counter() - t0
    ok = worst_malus < 1e-9 and worst_rqwp < 1e-12 and dt < 5.0
    _report(9, "malus 1e-9 / rqwp 1e-12 on 1000 random instances, <5s",
            ok, f"malus={worst_malus:.1e} rqwp={worst_rqwp:.1e}, {dt:.1f}s")


def test_10_detailed_balance():
    from vibropol import EmitterModel, PhononMode
    worst = 0.0
    for omega in (10.0, 50.0, 165.0):
        model = EmitterModel(
            zpl_energy=1.848, equilibrium_angle=0.0, equilibrium_dipole=1.0,
            modes=(PhononMode(omega, 0.25, 0.3),), zpl_linewidth=1.0,
            temperature=300.0, zpl_profile="gaussian")
        grid = full_band_grid(model, 0.05)
        dens = lineshape_density(model, grid)
        e = grid.points
        half = min(0.45 * omega, 20.0)

        def w(center):
            mask = np.abs(e - center) * 1e3 <= half
            return np.trapezoid(dens[mask], e[mask] * 1e3)

        ratio = w(model.zpl_energy + omega * 1e-3) / w(model.zpl_energy
                                                       - omega * 1e-3)
        expected = math.exp(-omega / (KB_MEV * 300.0))
        worst = max(worst, abs(ratio - expected) / expected)
    ok = worst < 1e-4
    _report(10, "anti-Stokes/Stokes ratio = exp(-hw/kT), tol 1e-4 rel",
            ok, f"worst rel err={worst:.2e}")


def test_11_g2_reproduction():
    t0 = time.perf_counter()
    details = []
    ok = True
    for rho, target in ((0.943, 0.11), (0.883, 0.22)):
        bg = background_rate_for_fraction(rho, 0.1, 20.0)
        vals = np.array([
            g2_histogram(simulate_stream(0.1, bg, 20.0, 2.0, 0.02,
                                         seed=1000 + k),
                         0.5, 500.0, 50.0).g2_zero
            for k in range(200)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        dev = abs(vals.mean() - g2_zero_expected(rho))
        ok = ok and dev < 2.0 * se
        details.append(f"rho={rho}: mean={vals.mean():.4f} "
                       f"target~{target} dev={dev:.4f} 2se={2 * se:.4f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    _report(11, "g2 means within 2 s.e. of 1-rho^2 over 200 runs, <120s",
            ok, "; ".join(details) + f", {dt:.1f}s")


def test_12_condon_limit():
    worst_psi = 0.0
    worst_dolp = 0.0
    for name in ("weak_coupling", "strong_coupling"):
        for temp in (0.0, 6.0, 77.0, 300.0):
            model = condon_limit(load_preset(name, temperature_k=temp))
            grid = make_grid(model.zpl_energy - 0.030,
                             model.zpl_energy + 0.030, 301)
            curve = orientation_vs_energy(model, grid)
            v = curve.valid
            worst_psi = max(worst_psi, float(np.max(np.abs(
                curve.psi[v] - model.equilibrium_angle))))
            worst_dolp = max(worst_dolp,
                             float(np.max(np.abs(curve.dolp[v] - 1.0))))
    ok = worst_psi < 1e-9 and worst_dolp < 1e-9
    _report(12, "Condon limit: psi const, DOLP = 1 to machine precision",
            ok, f"max |dpsi|={worst_psi:.1e} max |dolp-1|={worst_dolp:.1e}")
