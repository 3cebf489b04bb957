"""Forward and inverse polarization optics on one Stokes path.

Each instrument is one response matrix (``_response``): row t maps the
Stokes vector (s0, s1, s2, s3) to the intensity behind an ideal analyzer
at angle t, or behind an ideal quarter-wave plate with its fast axis at t
in front of a fixed horizontal polarizer (RQWP; Schaefer et al., Am. J.
Phys. 75, 163 (2007)).  Maps are rendered through it, and traces are
inverted by one least-squares solve against it, which also gives their rms
residual.  Stokes vectors become (psi, DOP, chi) through
``core._stokes_psi_dop_chi``.

The Malus parametrization I(theta) = i_max cos^2(theta - theta0) + i_min
is the analyzer row with i_max = |s1, s2|, i_min = (s0 - i_max)/2 and
theta0 = psi; its degree of linear polarization is (peak - floor)/(peak +
floor) = i_max / (i_max + 2 i_min), uncapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PRESET_NAMES, load_preset
from .core import (MAX_GRID_POINTS, EmitterModel, EnergyGrid, NumericalError,
                   OrientationCurve, PolarizationMap, ValidationError,
                   _check_seed, _energy_bins, _stokes_psi_dop_chi, make_grid,
                   wrap_orientation, wrap_orientation_scalar)
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


def _response(mode: str, angles_deg) -> np.ndarray:
    """(angle x 4) matrix taking (s0, s1, s2, s3) to the transmitted
    intensity: rows 1/2 (1, cos 2t, sin 2t, 0) behind an analyzer at t,
    1/2 (1, 1/2 + 1/2 cos 4t, 1/2 sin 4t, -sin 2t) behind the RQWP at t."""
    t = np.deg2rad(np.asarray(angles_deg, dtype=float))
    if mode == "analyzer":
        rows = (np.ones_like(t), np.cos(2 * t), np.sin(2 * t),
                np.zeros_like(t))
    else:
        rows = (np.ones_like(t), 0.5 + 0.5 * np.cos(4 * t),
                0.5 * np.sin(4 * t), -np.sin(2 * t))
    return 0.5 * np.stack(rows, axis=-1)


def _checked_response(mode: str, angles_deg) -> np.ndarray:
    """``_response`` of an angle set that determines the instrument's
    Stokes components: at least 4 analyzer angles spanning 135 deg, not
    all equal mod 90 deg; at least 8 uniform RQWP angles on whole
    rotations."""
    th = np.asarray(angles_deg, dtype=float)
    if th.ndim != 1 or not np.all(np.isfinite(th)):
        raise ValidationError("angles must be finite and 1-D")
    response = _response(mode, th)
    if mode == "analyzer":
        if th.size < 4:
            raise ValidationError("need at least 4 samples")
        if np.ptp(th) < 135.0 - 1e-9:
            raise ValidationError(
                "samples must span at least 135 deg of rotation")
        # rank check: all angles equal mod 90 deg makes cos/sin columns
        # constant
        sv = np.linalg.svd(response[:, :3], compute_uv=False)
        if sv[-1] < 1e-9 * sv[0]:
            raise ValidationError(
                "angle set is rank-deficient (degenerate mod 90)")
        return response
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
    return response


def _invert(response, traces) -> tuple:
    """Least-squares Stokes vectors (4 x trace) of the columns of traces
    (angle x trace, or one trace), and their rms residuals."""
    if not np.all(np.isfinite(traces)) or np.any(traces < 0):
        raise ValidationError("intensities must be finite and non-negative")
    s, *_ = np.linalg.lstsq(response, traces, rcond=None)
    return s, np.sqrt(np.mean((traces - response @ s) ** 2, axis=0))


def _invert_trace(mode: str, angles_deg, intensities) -> tuple:
    """``_invert`` of one trace, after checking its angle set."""
    response = _checked_response(mode, angles_deg)
    inten = np.asarray(intensities, dtype=float)
    if inten.shape != response.shape[:1]:
        raise ValidationError("angles and intensities must be equal 1-D arrays")
    return _invert(response, inten)


def malus_intensity(theta_deg, fit: MalusFit):
    """I(theta) = i_max cos^2(theta - theta0) + i_min."""
    two = np.deg2rad(2.0 * (0.0 if np.isnan(fit.theta0) else fit.theta0))
    s = (fit.i_max + 2.0 * fit.i_min, fit.i_max * np.cos(two),
         fit.i_max * np.sin(two), 0.0)
    return _response("analyzer", theta_deg) @ s


def fit_malus(angles_deg, intensities) -> MalusFit:
    """Least-squares Malus fit: the analyzer Stokes vector of the trace;
    theta0 is NaN, and i_max 0, where it has no defined axis."""
    (s0, s1, s2, _), rms = _invert_trace("analyzer", angles_deg, intensities)
    theta0 = float(_stokes_psi_dop_chi(s0, s1, s2)[0])
    i_max = 0.0 if np.isnan(theta0) else float(np.hypot(s1, s2))
    i_min = float(0.5 * (s0 - i_max))
    dolp = i_max / (i_max + 2.0 * i_min) if i_max > 0 else 0.0
    return MalusFit(theta0, i_max, i_min, dolp, float(rms),
                    i_min < -1e-9 * max(0.5 * s0, 1e-300))


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
    """(DOP, psi, chi) of the state; psi is NaN where it has no linear
    part (``core._stokes_psi_dop_chi``)."""
    if s.s0 <= 0:
        raise ValidationError("s0 must be > 0")
    psi, dop, chi = _stokes_psi_dop_chi(s.s0, s.s1, s.s2, s.s3)
    return PolarizationEllipse(float(dop), float(psi), float(chi))


def rqwp_intensity(s: StokesVector, qwp_angle_deg):
    """Transmission of QWP (fast axis at theta) + horizontal polarizer."""
    return _response("rqwp", qwp_angle_deg) @ (s.s0, s.s1, s.s2, s.s3)


def extract_stokes_rqwp(qwp_angles_deg, intensity) -> StokesVector:
    """Least-squares Stokes vector of an RQWP trace on uniform full
    rotations."""
    return StokesVector(*_invert_trace("rqwp", qwp_angles_deg, intensity)[0])


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
    maximum; poisson noise uses a seeded deterministic generator.  A map
    of more than MAX_GRID_POINTS cells is refused before any is computed.
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
    _check_seed(seed)
    n_angle = np.size(angles_deg)
    if not grid.n_points * n_angle <= MAX_GRID_POINTS:
        raise ValidationError(f"a map of {grid.n_points} energies x {n_angle} "
                              f"angles exceeds {MAX_GRID_POINTS} cells")
    return _render_map(orientation_vs_energy(model, grid), angles_deg, mode,
                       counts_per_point, noise, seed)


def _render_map(curve: OrientationCurve, angles_deg, mode: str,
                counts_per_point: float, noise: str,
                seed: int) -> PolarizationMap:
    """``simulate_polarization_map`` of a computed forward curve."""
    angles = np.asarray(angles_deg, dtype=float)
    inten = np.stack(_forward_stokes(curve), axis=-1) @ _response(
        mode, angles)[:, :3].T
    peak = inten.max()
    if peak <= 0:
        raise NumericalError("simulated map has no intensity")
    scale = counts_per_point / float(peak)       # a float: inf, no warning
    if not np.isfinite(scale):
        raise ValidationError(f"counts_per_point {counts_per_point:g} is too "
                              f"large: its scale to the map peak {peak:.3g} "
                              "is not finite")
    expected = inten * scale
    if noise == "poisson":
        rng = np.random.default_rng(seed)
        expected = rng.poisson(expected).astype(float)
    return PolarizationMap(curve.grid, angles, np.clip(expected, 0.0, None))


def analyze_map(pmap: PolarizationMap, mode: str = "analyzer",
                bin_width_mev: float = 4.0) -> OrientationCurve:
    """Per-bin polarization analysis of an energy-resolved map.

    Slices the map into energy bins and inverts all their angular
    profiles in one least-squares solve against the mode's response; a
    bin with MIN_BIN_COUNTS counts or fewer, or no defined angle (no
    linear polarization, or no intensity), is invalid.
    """
    if mode not in ("analyzer", "rqwp"):
        raise ValidationError(f"unknown map mode {mode!r}")
    # the angle set is checked once, before any bin
    response = _checked_response(mode, pmap.angles)
    rows, centers, partial = _energy_bins(pmap.grid, bin_width_mev)
    centers = centers[~partial]
    if centers.size < 2:
        raise ValidationError("map yields fewer than 2 full bins")
    grid = EnergyGrid(centers[0], centers[-1], centers.size)
    profiles = np.array([pmap.intensity[r].sum(axis=0)   # bin x angle
                         for r, p in zip(rows, partial) if not p])
    weight = profiles.sum(axis=1)
    stokes, rms = _invert(response, profiles.T)
    psi, dolp, chi = _stokes_psi_dop_chi(*stokes)
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
    rows, _, partial = _energy_bins(curve.grid, bin_width_mev)
    stokes = _forward_stokes(curve)
    sums = [[s[r].sum() for s in stokes]
            for r, p in zip(rows, partial) if not p]
    return _stokes_psi_dop_chi(*np.reshape(sums, (-1, 3)).T)[0]


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
