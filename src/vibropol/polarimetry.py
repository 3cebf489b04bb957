"""Forward and inverse polarization optics.

Conventions: the Malus parametrization follows
I(theta) = i_max cos^2(theta - theta0) + i_min, so the measured peak is
i_max + i_min and the floor i_min; the degree of linear polarization is
(peak - floor)/(peak + floor) = i_max / (i_max + 2 i_min).  The RQWP
trace assumes an ideal quarter-wave plate at fast-axis angle theta in
front of a fixed horizontal polarizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PRESET_NAMES, load_preset
from .core import (EmitterModel, EnergyGrid, NumericalError,
                   OrientationCurve, PolarizationMap, ValidationError,
                   _energy_bins, make_grid, slice_map, wrap_orientation,
                   wrap_orientation_scalar)
from .dipole import opsb_offset, orientation_vs_energy

# largest map maximum numpy's Poisson sampler accepts (its limit is ~9.2e18)
POISSON_MAX_COUNTS = 1e18

# a bin is valid when its summed counts exceed this (rel. error <~ 20%)
MIN_BIN_COUNTS = 25.0


@dataclass(frozen=True)
class StokesVector:
    """Classical polarization state (s0, s1, s2, s3) in intensity units.

    For exact states s0 >= |s| must hold to 1e-9 relative; states
    extracted from noisy data may carry a deficit, which is reported via
    ``physicality_deficit`` instead of being clamped silently.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in
                   (self.s0, self.s1, self.s2, self.s3)):
            raise ValidationError("Stokes components must be finite")

    @property
    def polarized_magnitude(self) -> float:
        return float(np.sqrt(self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2))

    @property
    def physicality_deficit(self) -> float:
        """How far the state is from physical: max(0, |s| - s0)."""
        return max(0.0, self.polarized_magnitude - self.s0)


@dataclass(frozen=True)
class PolarizationEllipse:
    """Degree of polarization, orientation psi and ellipticity chi (deg)."""

    dop: float
    psi: float
    chi: float

    def __post_init__(self):
        if not 0.0 <= self.dop <= 1.0:
            raise ValidationError("dop must lie in [0, 1]")
        if not -45.0 <= self.chi <= 45.0:
            raise ValidationError("chi must lie in [-45, 45] deg")
        object.__setattr__(self, "psi", wrap_orientation_scalar(self.psi))


@dataclass(frozen=True)
class MalusFit:
    """Result of a Malus-law fit.

    theta0 is NaN when the modulation amplitude vanishes (dolp = 0).
    ``unphysical_floor`` flags a reconstructed i_min below zero beyond
    numerical tolerance; the fit is still returned.
    """

    theta0: float
    i_max: float
    i_min: float
    dolp: float
    rms_residual: float
    unphysical_floor: bool = False

    def __post_init__(self):
        peak = self.i_max + self.i_min
        floor = self.i_min
        denom = peak + floor
        expected = (peak - floor) / denom if denom > 0 else 0.0
        if abs(self.dolp - expected) > 1e-9 + 1e-9 * abs(expected):
            raise ValidationError("dolp inconsistent with i_max/i_min")


def malus_intensity(theta_deg, fit: MalusFit):
    """I(theta) = i_max cos^2(theta - theta0) + i_min."""
    th = np.deg2rad(np.asarray(theta_deg, dtype=float) - fit.theta0)
    return fit.i_max * np.cos(th) ** 2 + fit.i_min


def _malus_design(angles_deg) -> np.ndarray:
    """Basis {1, cos2t, sin2t} at the angles of a usable analyzer trace."""
    th = np.asarray(angles_deg, dtype=float)
    if th.ndim != 1 or not np.all(np.isfinite(th)):
        raise ValidationError("angles must be finite and 1-D")
    if th.size < 4:
        raise ValidationError("need at least 4 samples")
    if np.ptp(th) < 135.0 - 1e-9:
        raise ValidationError("samples must span at least 135 deg of rotation")
    t2 = np.deg2rad(2.0 * th)
    design = np.column_stack([np.ones_like(t2), np.cos(t2), np.sin(t2)])
    # rank check: all angles equal mod 90 deg makes cos/sin columns constant
    _, sv, _ = np.linalg.svd(design, full_matrices=False)
    if sv[-1] < 1e-9 * sv[0]:
        raise ValidationError("angle set is rank-deficient (degenerate mod 90)")
    return design


def fit_malus(angles_deg, intensities) -> MalusFit:
    """Closed-form linear least squares on the basis {1, cos2t, sin2t}."""
    design = _malus_design(angles_deg)
    fit = _malus_fits(design, _trace(intensities, design.shape[0])[:, None])
    return MalusFit(*(float(v[0]) for v in fit[:5]), bool(fit[5][0]))


def _trace(intensities, n: int) -> np.ndarray:
    inten = np.asarray(intensities, dtype=float)
    if inten.shape != (n,):
        raise ValidationError("angles and intensities must be equal 1-D arrays")
    return inten


def _malus_fits(design, inten) -> tuple:
    """``MalusFit`` fields, as arrays, of the columns of inten (angle x
    trace) in one solve; theta0 is NaN where the modulation vanishes."""
    if not np.all(np.isfinite(inten)) or np.any(inten < 0):
        raise ValidationError("intensities must be finite and non-negative")
    coef, *_ = np.linalg.lstsq(design, inten, rcond=None)
    a, b, c = coef
    r = np.hypot(b, c)
    rms = np.sqrt(np.mean((inten - design @ coef) ** 2, axis=0))
    unphysical = a - r < -1e-9 * np.maximum(a, 1e-300)
    flat = (r < 1e-12 * np.maximum(np.abs(a), 1.0)) | (a <= 0)
    i_max = np.where(flat, 0.0, 2.0 * r)
    i_min = np.where(flat, a, a - r)
    peak, floor = i_max + i_min, i_min
    with np.errstate(divide="ignore", invalid="ignore"):
        dolp = np.where(flat, 0.0, (peak - floor) / (peak + floor))
    theta0 = np.where(flat, np.nan,
                      wrap_orientation(0.5 * np.rad2deg(np.arctan2(c, b))))
    return theta0, i_max, i_min, dolp, rms, unphysical


def ellipse_to_stokes(e: PolarizationEllipse, s0: float) -> StokesVector:
    psi = np.deg2rad(e.psi)
    chi = np.deg2rad(e.chi)
    p = e.dop
    return StokesVector(
        s0,
        s0 * p * np.cos(2 * chi) * np.cos(2 * psi),
        s0 * p * np.cos(2 * chi) * np.sin(2 * psi),
        s0 * p * np.sin(2 * chi))


def stokes_to_ellipse(s: StokesVector) -> PolarizationEllipse:
    if s.s0 <= 0:
        raise ValidationError("s0 must be > 0")
    mag = s.polarized_magnitude
    dop = min(mag / s.s0, 1.0)
    if mag == 0.0:
        return PolarizationEllipse(0.0, np.nan, 0.0)
    psi = 0.5 * np.rad2deg(np.arctan2(s.s2, s.s1))
    chi = 0.5 * np.rad2deg(np.arcsin(np.clip(s.s3 / mag, -1.0, 1.0)))
    return PolarizationEllipse(dop, psi, chi)


def rqwp_intensity(s: StokesVector, qwp_angle_deg):
    """Transmission of QWP (fast axis at theta) + horizontal polarizer.

    I(theta) = 1/2 (A + B sin 2t + C cos 4t + D sin 4t) with
    A = s0 + s1/2, B = -s3, C = s1/2, D = s2/2.
    """
    t = np.deg2rad(np.asarray(qwp_angle_deg, dtype=float))
    a = s.s0 + 0.5 * s.s1
    return 0.5 * (a - s.s3 * np.sin(2 * t) + 0.5 * s.s1 * np.cos(4 * t)
                  + 0.5 * s.s2 * np.sin(4 * t))


def _rqwp_basis(qwp_angles_deg) -> np.ndarray:
    """Rows (2, 4 sin 2t, 4 cos 4t, 4 sin 4t) / n at n RQWP angles t."""
    th = np.asarray(qwp_angles_deg, dtype=float)
    if th.ndim != 1 or not np.all(np.isfinite(th)):
        raise ValidationError("angles must be finite and 1-D")
    if th.size < 8:
        raise ValidationError("need at least 8 samples")
    steps = np.diff(th)
    if np.ptp(steps) > 1e-9 * abs(steps[0]) + 1e-12:
        raise ValidationError("angles must be uniformly spaced")
    total = th[-1] - th[0] + steps[0]
    k = total / 360.0
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValidationError(
            f"samples must cover whole rotations (got {total:.6g} deg)")
    t = np.deg2rad(th)
    return np.array([np.full_like(t, 2.0), 4.0 * np.sin(2 * t),
                     4.0 * np.cos(4 * t), 4.0 * np.sin(4 * t)]) / t.size


def extract_stokes_rqwp(qwp_angles_deg, intensity) -> StokesVector:
    """Fourier inversion of an RQWP trace on uniform full rotations."""
    basis = _rqwp_basis(qwp_angles_deg)
    inten = _trace(intensity, basis.shape[1])[None, :]
    return StokesVector(*_rqwp_stokes(basis, inten)[:, 0])


def _rqwp_stokes(basis, inten) -> np.ndarray:
    """(s0, s1, s2, s3) x trace of the traces in the rows of inten."""
    a, b, c, d = (inten @ basis.T).T
    return np.array([a - c, 2.0 * c, 2.0 * d, -b])


def default_map_grid(model: EmitterModel) -> EnergyGrid:
    """Default energy axis of a polarization map: ZPL +- 30 meV, 601 points."""
    return make_grid(model.zpl_energy - 0.030, model.zpl_energy + 0.030, 601)


def default_map_angles(mode: str) -> np.ndarray:
    """Default angles (deg) of a polarization map: 0:180:10 for an analyzer
    map, 0:360:10 for an RQWP map."""
    return np.arange(0.0, 180.0 if mode == "analyzer" else 360.0, 10.0)


def _forward_stokes(curve: OrientationCurve) -> tuple:
    """(s0, s1, s2) of a forward curve: its intensity, polarized with the
    channel psi and DOLP where valid and unpolarized elsewhere."""
    p = np.where(curve.valid, curve.dolp, 0.0)
    two_psi = np.deg2rad(2.0 * np.where(curve.valid, curve.psi, 0.0))
    s0 = curve.weight
    return s0, s0 * p * np.cos(two_psi), s0 * p * np.sin(two_psi)


def simulate_polarization_map(model: EmitterModel, grid: EnergyGrid,
                              angles_deg, mode: str = "analyzer",
                              counts_per_point: float = 1e4,
                              noise: str = "none",
                              seed: int = 0) -> PolarizationMap:
    """Forward polarization map from the emitter model.

    Per energy the Stokes vector of the orientation_vs_energy curve (its
    weight, the lineshape intensity, polarized with the channel psi and
    DOLP) is rendered through an ideal rotating analyzer or the RQWP
    formula.  ``counts_per_point`` sets the expected counts at the map
    maximum; poisson noise uses a seeded deterministic generator.
    """
    if mode not in ("analyzer", "rqwp"):
        raise ValidationError(f"unknown map mode {mode!r}")
    if noise not in ("none", "poisson"):
        raise ValidationError(f"unknown noise model {noise!r}")
    if not (np.isfinite(counts_per_point) and counts_per_point > 0):
        raise ValidationError("counts_per_point must be finite and > 0")
    if noise == "poisson" and counts_per_point > POISSON_MAX_COUNTS:
        raise ValidationError(
            f"poisson noise needs counts_per_point <= {POISSON_MAX_COUNTS:g}")
    return _render_map(orientation_vs_energy(model, grid), angles_deg, mode,
                       counts_per_point, noise, seed)


def _render_map(curve: OrientationCurve, angles_deg, mode: str,
                counts_per_point: float, noise: str,
                seed: int) -> PolarizationMap:
    """``simulate_polarization_map`` of a computed forward curve."""
    angles = np.asarray(angles_deg, dtype=float)
    s0, s1, s2 = _forward_stokes(curve)
    t = np.deg2rad(angles)[None, :]
    if mode == "analyzer":
        inten = 0.5 * (s0[:, None] + s1[:, None] * np.cos(2 * t)
                       + s2[:, None] * np.sin(2 * t))
    else:
        a = (s0 + 0.5 * s1)[:, None]
        inten = 0.5 * (a + 0.5 * s1[:, None] * np.cos(4 * t)
                       + 0.5 * s2[:, None] * np.sin(4 * t))
    peak = inten.max()
    if peak <= 0:
        raise NumericalError("simulated map has no intensity")
    expected = inten * (counts_per_point / peak)
    if noise == "poisson":
        rng = np.random.default_rng(seed)
        expected = rng.poisson(expected).astype(float)
    return PolarizationMap(curve.grid, angles, np.clip(expected, 0.0, None))


def analyze_map(pmap: PolarizationMap, mode: str = "analyzer",
                bin_width_mev: float = 4.0) -> OrientationCurve:
    """Per-bin polarization analysis of an energy-resolved map.

    Slices the map into energy bins and fits all their angular profiles
    at once (Malus for analyzer maps, RQWP Fourier inversion otherwise);
    a bin with MIN_BIN_COUNTS counts or fewer, or no defined angle (no
    modulation, or no RQWP intensity), is invalid.
    """
    if mode not in ("analyzer", "rqwp"):
        raise ValidationError(f"unknown map mode {mode!r}")
    # the angle set is checked once, before any bin
    basis = (_malus_design if mode == "analyzer" else _rqwp_basis)(pmap.angles)
    slices = [s for s in slice_map(pmap, bin_width_mev) if not s.partial]
    if len(slices) < 2:
        raise ValidationError("map yields fewer than 2 full bins")
    centers = np.array([s.center_energy for s in slices])
    grid = EnergyGrid(centers[0], centers[-1], centers.size)
    profiles = np.array([s.profile for s in slices])     # bin x angle
    weight = profiles.sum(axis=1)
    if mode == "analyzer":
        psi, _, _, dolp, rms, _ = _malus_fits(basis, profiles.T)
        chi = np.zeros_like(psi)
    else:
        s0, s1, s2, s3 = _rqwp_stokes(basis, profiles)
        mag = np.sqrt(s1 ** 2 + s2 ** 2 + s3 ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = np.where((s0 > 0) & (mag > 0), wrap_orientation(
                0.5 * np.rad2deg(np.arctan2(s2, s1))), np.nan)
            dolp = np.minimum(mag / s0, 1.0)
            chi = 0.5 * np.rad2deg(np.arcsin(np.clip(s3 / mag, -1.0, 1.0)))
        rms = np.full(psi.size, np.nan)
    valid = (weight > MIN_BIN_COUNTS) & ~np.isnan(psi)
    return OrientationCurve(grid, np.where(valid, psi, np.nan),
                            np.where(valid, dolp, 0.0), weight, valid,
                            chi=np.where(valid, chi, np.nan),
                            rms_residual=np.where(valid, rms, np.nan))


def binned_forward_psi(curve: OrientationCurve,
                       bin_width_mev: float = 4.0) -> np.ndarray:
    """Orientation (deg) of the summed forward Stokes vector in each full
    bin, binned as ``analyze_map`` bins a map of ``curve``; NaN where a
    bin carries no polarization."""
    _, s1, s2 = _forward_stokes(curve)
    out = []
    for sel, _, _, partial in _energy_bins(curve.grid, bin_width_mev):
        if partial:
            continue
        t1, t2 = s1[sel].sum(), s2[sel].sum()
        out.append(0.5 * np.degrees(np.arctan2(t2, t1))
                   if np.hypot(t1, t2) > 0 else np.nan)
    return np.array(out)


def roundtrip_checks() -> list:
    """(case, metric, value, target, ok) rows of the simulate/analyze
    consistency checks: analyzed noise-free maps of both presets against
    ``binned_forward_psi``, and the strong preset's headline numbers."""
    rows = []

    def check(case, metric, value, target, ok):
        rows.append((case, metric, value, target, bool(ok)))

    for preset in PRESET_NAMES:
        for temp in (6.0, 300.0):
            model = load_preset(preset, temperature_k=temp)
            forward = orientation_vs_energy(model, default_map_grid(model))
            fwd = binned_forward_psi(forward)
            for mode in ("analyzer", "rqwp"):
                pmap = _render_map(forward, default_map_angles(mode), mode,
                                   1e4, "none", 0)
                curve = analyze_map(pmap, mode=mode, bin_width_mev=4.0)
                sel = curve.valid & np.isfinite(fwd)
                devs = np.abs(wrap_orientation(curve.psi[sel] - fwd[sel]))
                max_dev = float(devs.max()) if devs.size else np.nan
                case = f"{preset}/{temp:g}K/{mode}"
                check(case, "max_psi_roundtrip_deg", max_dev, "<= 0.5",
                      np.isfinite(max_dev) and max_dev <= 0.5)
                if preset == "strong_coupling" and temp == 300.0:
                    sweep = curve.sweep()
                    check(case, "sweep_deg", sweep, "40 +- 2",
                          abs(sweep - 40.0) <= 2.0)
                    d = curve.dolp[curve.valid]
                    check(case, "dolp_min", float(d.min()), ">= 0.55",
                          d.min() >= 0.55)
                    check(case, "dolp_max", float(d.max()), "<= 0.85",
                          d.max() <= 0.85)
                if preset == "strong_coupling" and temp == 6.0:
                    sel = curve.valid & (curve.weight
                                         > 0.01 * curve.weight.max())
                    sweep = float(curve.psi[sel].max() - curve.psi[sel].min())
                    check(case, "cold_sweep_deg", sweep, "< 2",
                          sweep < 2.0)

    model = load_preset("strong_coupling", temperature_k=300.0)
    off = opsb_offset(model)
    check("strong_coupling/300K", "opsb_offset_deg", off, "|x| = 5 +- 1",
          abs(abs(off) - 5.0) <= 1.0)
    ogrid = make_grid(model.zpl_energy - 0.175, model.zpl_energy - 0.155, 401)
    ocurve = orientation_vs_energy(model, ogrid)
    sel = ocurve.valid & (ocurve.weight > 0.01 * ocurve.weight.max())
    intra = float(ocurve.psi[sel].max() - ocurve.psi[sel].min())
    check("strong_coupling/300K", "intra_opsb_deg", intra, ">= 20",
          intra >= 20.0)
    return rows
