"""Generate the shipped preset config files.

Per-mode gradient magnitudes are solved in closed form from target
one-phonon rotations.  The effective acoustic gradient is calibrated by
bisection so the strong preset recovers a 40 deg orientation sweep
through the room-temperature map pipeline, and the orientation jitter is
set so the recovered DOLP tops out near 0.78.  Run from the repo root:

    python3 tools/make_presets.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vibropol import (EmitterModel, PhononMode, analyze_map, make_grid,
                      mode_rotations, model_to_config, opsb_offset,
                      orientation_vs_energy, simulate_polarization_map,
                      solve_gradient_for_rotation)
from vibropol.dipole import thermal_amplification
from vibropol.polarimetry import default_map_angles, default_map_grid

PRESET_DIR = Path(__file__).resolve().parents[1] / "src/vibropol/presets"

ZPL_EV = 1.848
PSI0 = 0.0
LINEWIDTH = 1.0
ACOUSTIC_COUPLING = 2.0
ACOUSTIC_CUTOFF = 2.0

WEAK = dict(
    name="weak_coupling",
    omega=[152.0, 160.0, 166.0, 173.0],
    hr=[0.40, 0.65, 0.80, 0.86],          # totals 2.71
    dq=[0.21] * 4,                         # quadrature total 0.42
    alpha=[-60.0, 75.0, -50.0, 80.0],
    dtheta=[-1.2, 1.8, -2.2, 2.7],         # max |dtheta| = 2.7 deg
)

STRONG_BASE = dict(
    name="strong_coupling",
    omega=[158.0, 163.0, 167.0, 172.0],
    hr=[1.10, 1.40, 1.62, 1.84],           # totals 5.96
    dq=[0.435] * 4,                        # quadrature total 0.87
    alpha=[-55.0, 70.0, -60.0, 75.0],
)

# candidate one-phonon rotation tables for the strong preset; max is
# pinned at 10 deg, the rest are tuned against the OPSB criteria
STRONG_DTHETA_CANDIDATES = [
    [-10.0, 2.0, -2.0, 8.0],
    [-10.0, 3.0, -2.0, 7.0],
    [-10.0, 2.0, -1.0, 7.0],
    [-10.0, 3.0, -3.0, 8.0],
    [-10.0, 1.0, -1.0, 8.0],
    [-10.0, 4.0, -2.0, 6.0],
]


def build_model(spec, acoustic_gradient=0.0, jitter=0.0, temperature=300.0,
                dtheta=None):
    dth = dtheta if dtheta is not None else spec["dtheta"]
    modes = []
    for w, s, dq, a, t in zip(spec["omega"], spec["hr"], spec["dq"],
                              spec["alpha"], dth):
        g = solve_gradient_for_rotation(t, a, PSI0, 1.0, dq)
        modes.append(PhononMode(w, s, dq, g, a))
    return EmitterModel(
        zpl_energy=ZPL_EV, equilibrium_angle=PSI0, equilibrium_dipole=1.0,
        modes=tuple(modes), zpl_linewidth=LINEWIDTH,
        acoustic_coupling=ACOUSTIC_COUPLING, acoustic_cutoff=ACOUSTIC_CUTOFF,
        temperature=temperature, strain_bias=1.0, zpl_profile="gaussian",
        acoustic_gradient=acoustic_gradient, orientation_jitter=jitter)


def analyzed_curve(model):
    pmap = simulate_polarization_map(model, default_map_grid(model),
                                     default_map_angles("analyzer"),
                                     mode="analyzer", counts_per_point=1e4,
                                     noise="none")
    return analyze_map(pmap, mode="analyzer", bin_width_mev=4.0)


def analyzed_sweep(model):
    return analyzed_curve(model).sweep()


def bisect_gradient(spec, dtheta, target=40.0, tol=0.02):
    lo, hi = 1e-4, 0.2
    f_hi = analyzed_sweep(build_model(spec, hi, dtheta=dtheta))
    if f_hi < target:
        raise RuntimeError(f"bracket too small: sweep({hi}) = {f_hi:.2f}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s = analyzed_sweep(build_model(spec, mid, dtheta=dtheta))
        if abs(s - target) < tol:
            return mid, s
        if s < target:
            lo = mid
        else:
            hi = mid
    return mid, s


def intra_opsb_range(model):
    grid = make_grid(model.zpl_energy - 0.175, model.zpl_energy - 0.155, 401)
    curve = orientation_vs_energy(model, grid)
    sel = curve.valid & (curve.weight > 0.01 * curve.weight.max())
    psi = curve.psi[sel]
    return float(psi.max() - psi.min())


def calibrate_jitter(spec, gradient, dtheta, target_max_dolp=0.78):
    model0 = build_model(spec, gradient, 0.0, dtheta=dtheta)
    curve = analyzed_curve(model0)
    d0 = curve.dolp[curve.valid].max()
    scale = min(target_max_dolp / d0, 1.0)
    sigma = np.sqrt(-0.5 * np.log(scale)) if scale < 1.0 else 0.0
    amp = thermal_amplification(model0)
    return float(sigma / (gradient * amp))


def dolp_band(model):
    curve = analyzed_curve(model)
    d = curve.dolp[curve.valid]
    return float(d.min()), float(d.max())


def render_preset(model, name, notes):
    """Text of a preset config file."""
    cfg = model_to_config(model)
    lines = [f"# {name} preset: synthetic 4-mode emitter"]
    lines += [f"# {n}" for n in notes]
    lines += [f"{k} = {v}" for k, v in cfg.items()]
    return "\n".join(lines) + "\n"


def calibrate():
    """Run the calibration; return {preset name: config file text}."""
    chosen = None
    for dtheta in STRONG_DTHETA_CANDIDATES:
        g, sweep = bisect_gradient(STRONG_BASE, dtheta)
        model = build_model(STRONG_BASE, g, dtheta=dtheta)
        off = opsb_offset(model)
        intra = intra_opsb_range(model)
        print(f"dtheta={dtheta}: g={g:.6f} sweep={sweep:.2f} "
              f"offset={off:.2f} intra={intra:.2f}")
        if abs(abs(off) - 5.0) < 0.6 and intra >= 21.0 and chosen is None:
            chosen = (dtheta, g, sweep, off, intra)
    if chosen is None:
        raise SystemExit("no candidate satisfied the OPSB criteria")
    dtheta, g, sweep, off, intra = chosen
    jitter = calibrate_jitter(STRONG_BASE, g, dtheta)
    strong = build_model(STRONG_BASE, g, jitter, dtheta=dtheta)
    lo, hi = dolp_band(strong)
    print(f"chosen dtheta={dtheta} g={g:.6f} jitter={jitter:.6f}")
    print(f"sweep={analyzed_sweep(strong):.3f} offset={opsb_offset(strong):.3f} "
          f"intra={intra_opsb_range(strong):.3f} dolp=[{lo:.3f}, {hi:.3f}]")
    cold = build_model(STRONG_BASE, g, jitter, temperature=6.0, dtheta=dtheta)
    ccurve = analyzed_curve(cold)
    sel = ccurve.valid & (ccurve.weight > 0.01 * ccurve.weight.max())
    cs = float(ccurve.psi[sel].max() - ccurve.psi[sel].min())
    print(f"6 K sweep over >1% bins: {cs:.3f}")

    weak = build_model(WEAK, g, jitter)
    print("weak max rotation:",
          max(abs(r.delta_theta) for r in mode_rotations(weak)))
    print("strong max rotation:",
          max(abs(r.delta_theta) for r in mode_rotations(strong)))

    notes_common = [
        "acoustic_gradient calibrated by bisection to a 40 deg analyzed",
        "sweep at 300 K (strong preset, noiseless analyzer map, 4 meV bins);",
        "orientation_jitter set so the recovered DOLP tops out near 0.78",
    ]
    return {
        "weak_coupling": render_preset(
            weak, "weak_coupling",
            ["total HR 2.71, total dQ 0.42, max rotation 2.7 deg"]
            + notes_common),
        "strong_coupling": render_preset(
            strong, "strong_coupling",
            ["total HR 5.96, total dQ 0.87, max rotation 10 deg"]
            + notes_common),
    }


def main():
    for name, text in calibrate().items():
        path = PRESET_DIR / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
