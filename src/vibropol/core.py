"""Shared domain types, unit conventions and energy grids.

Energies are stored in eV; phonon mode energies enter in meV and are
converted at the boundary.  All angles are degrees at the interfaces and
radians internally.  The model's directions (the equilibrium dipole, each
mode's dipole gradient, the acoustic gradient) are vector angles, period
360 deg, kept as given: the sign of a gradient relative to the dipole is
physical, since the displacement takes both signs.  Axes (an orientation
psi, a rotation) live on the canonical branch [-90, 90) deg (period 180
deg); ellipticity on [-45, 45] deg.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
import numpy as np

# Boltzmann constant, meV/K
KB_MEV = 8.617333262e-2

# largest grid or histogram built on request, as for the renderer's
# internal grid
MAX_GRID_POINTS = 2 ** 22

# most vibronic lines kept at once: net quanta of one mode, and lines of
# the multi-mode product
MAX_LINES = 400_000


class ValidationError(ValueError):
    """Bad input: rejected before any computation starts."""


class NumericalError(RuntimeError):
    """A computation could not be carried out at the required accuracy."""


def wrap_orientation(angle_deg):
    """Reduce an orientation angle (period 180 deg) to [-90, 90)."""
    return (np.asarray(angle_deg) + 90.0) % 180.0 - 90.0


def wrap_orientation_scalar(angle_deg: float) -> float:
    return float((angle_deg + 90.0) % 180.0 - 90.0)


def _stokes_psi_dop_chi(s0, s1, s2, s3=0.0) -> tuple:
    """(psi, DOP, chi) of Stokes vectors, elementwise: psi on the canonical
    branch, NaN where s0 <= 0 or |s1, s2| < 1e-12 max(|s0|, 2) (no defined
    axis); DOP = min(|s| / s0, 1), 0 where s0 <= 0; chi 0 where |s| = 0."""
    s0, s1, s2, s3 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (s0, s1, s2, s3)))
    lin = np.hypot(s1, s2)
    mag = np.hypot(lin, s3)
    axis = (s0 > 0) & (lin >= 1e-12 * np.maximum(np.abs(s0), 2.0))
    psi = np.where(axis, wrap_orientation(
        0.5 * np.rad2deg(np.arctan2(s2, s1))), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        dop = np.where(s0 > 0, np.minimum(mag / s0, 1.0), 0.0)
        chi = np.where(mag > 0, 0.5 * np.rad2deg(np.arcsin(
            np.clip(s3 / mag, -1.0, 1.0))), 0.0)
    return psi, dop, chi


def _check_seed(seed) -> None:
    """Refuse a seed numpy's SeedSequence would not take."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError("seed must be a non-negative integer")


def _require_finite(obj, names) -> None:
    for name in names:         # stored as floats: an int could overflow
        v = getattr(obj, name)
        if v is not None and not np.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v}")
        object.__setattr__(obj, name, v if v is None else float(v))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform, strictly increasing energy axis.

    The same container is reused for phonon-energy axes (meV); the unit
    is then stated by the producing function.
    """

    min_energy: float
    max_energy: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.min_energy) and np.isfinite(self.max_energy)):
            raise ValidationError("grid bounds must be finite")
        if self.min_energy >= self.max_energy:
            raise ValidationError(
                f"grid bounds inverted or degenerate: "
                f"[{self.min_energy}, {self.max_energy}]")
        if not self.n_points <= MAX_GRID_POINTS:
            raise ValidationError(f"grid would have {self.n_points} points "
                                  f"(limit {MAX_GRID_POINTS})")
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise ValidationError("n_points must be an integer >= 2")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def spacing(self) -> float:
        return (self.max_energy - self.min_energy) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.min_energy, self.max_energy, self.n_points)


def make_grid(min_energy: float, max_energy: float, n_points: int) -> EnergyGrid:
    """Uniform grid with spacing (max - min)/(n - 1)."""
    return EnergyGrid(min_energy, max_energy, n_points)


@dataclass(frozen=True)
class Spectrum:
    """Intensity versus energy on a uniform grid."""

    grid: EnergyGrid
    intensity: np.ndarray

    def __post_init__(self):
        inten = np.asarray(self.intensity, dtype=float)
        if inten.shape != (self.grid.n_points,):
            raise ValidationError("intensity length must equal grid n_points")
        if not np.all(np.isfinite(inten)):
            raise ValidationError("intensity must be finite")
        if np.any(inten < 0):
            raise ValidationError("intensity must be non-negative")
        inten = inten.copy()
        inten.setflags(write=False)
        object.__setattr__(self, "intensity", inten)


@dataclass(frozen=True)
class PhononMode:
    """One vibrational mode coupled to the transition.

    energy_mev        phonon quantum, meV (> 0)
    partial_hr        partial Huang-Rhys factor S_k (>= 0)
    partial_dq        partial displacement, amu^1/2 A (>= 0)
    grad_magnitude    relative dipole-gradient strength g_k (>= 0)
    grad_direction    gradient vector angle, deg (period 360)
    """

    energy_mev: float
    partial_hr: float
    partial_dq: float
    grad_magnitude: float = 0.0
    grad_direction: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("energy_mev", "partial_hr", "partial_dq",
                               "grad_magnitude", "grad_direction"))
        if not self.energy_mev > 0:
            raise ValidationError("mode energy must be > 0 meV")
        if self.partial_hr < 0 or self.partial_dq < 0 or self.grad_magnitude < 0:
            raise ValidationError("mode parameters must be non-negative")


@dataclass(frozen=True, kw_only=True)
class EmitterModel:
    """Parametric phonon-coupled emitter with coordinate-dependent dipole.

    The equilibrium dipole has vector angle ``equilibrium_angle`` (deg) and
    magnitude ``equilibrium_dipole``.  Each optical mode carries its own
    dipole-gradient direction; the acoustic continuum is represented by a
    single effective gradient (``acoustic_gradient`` at vector angle
    ``acoustic_grad_direction``, by default equilibrium_angle - 90) whose
    rotation sense follows the sign of ``strain_bias``; all three angles
    are vector angles (module docstring).  ``orientation_jitter`` sets the
    thermal orientation wobble that caps the observable degree of linear
    polarization.  Fields are keyword-only; ``config._KEYS`` names each
    one's config key.
    """

    zpl_energy: float
    equilibrium_angle: float = 0.0       # deg
    equilibrium_dipole: float = 1.0
    modes: tuple
    zpl_linewidth: float                 # meV, FWHM of the ZPL profile
    acoustic_coupling: float = 0.0       # dimensionless wing weight per side
    acoustic_cutoff: float = 2.0         # meV
    temperature: float = 300.0           # K
    strain_bias: float = 0.0
    zpl_profile: str = "lorentzian"      # lorentzian | gaussian
    acoustic_gradient: float = 0.0       # effective g_ac
    acoustic_grad_direction: float | None = None  # deg; default psi0 - 90
    orientation_jitter: float = 0.0      # scale of thermal angle wobble

    def __post_init__(self):
        _require_finite(self, (
            "zpl_energy", "equilibrium_angle", "equilibrium_dipole",
            "zpl_linewidth", "acoustic_coupling", "acoustic_cutoff",
            "temperature", "strain_bias", "acoustic_gradient",
            "acoustic_grad_direction", "orientation_jitter"))
        if not self.zpl_energy > 0:
            raise ValidationError("zpl_energy must be > 0")
        if not self.zpl_linewidth > 0:
            raise ValidationError("zpl_linewidth must be > 0")
        if not self.equilibrium_dipole > 0:
            raise ValidationError("equilibrium_dipole must be > 0")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")
        if not -1.0 <= self.strain_bias <= 1.0:
            raise ValidationError("strain_bias must lie in [-1, 1]")
        if self.acoustic_coupling < 0 or self.acoustic_gradient < 0:
            raise ValidationError("acoustic parameters must be non-negative")
        if not self.acoustic_cutoff > 0:
            raise ValidationError("acoustic_cutoff must be > 0 meV")
        if self.zpl_profile not in ("lorentzian", "gaussian"):
            raise ValidationError(f"unknown zpl_profile {self.zpl_profile!r}")
        modes = tuple(self.modes)
        for m in modes:
            if not isinstance(m, PhononMode):
                raise ValidationError("modes must be PhononMode instances")
        if not np.isfinite(sum(m.partial_hr for m in modes)):
            raise ValidationError("total HR factor must be finite")
        object.__setattr__(self, "modes", modes)

    @property
    def total_hr(self) -> float:
        return sum(m.partial_hr for m in self.modes)

    @property
    def acoustic_direction(self) -> float:
        """Acoustic gradient vector angle; defaults to equilibrium_angle - 90,
        perpendicular to the dipole."""
        if self.acoustic_grad_direction is None:
            return self.equilibrium_angle - 90.0
        return self.acoustic_grad_direction


def condon_limit(model: EmitterModel) -> EmitterModel:
    """Copy of the model with every dipole gradient switched off."""
    modes = tuple(replace(m, grad_magnitude=0.0) for m in model.modes)
    return replace(model, modes=modes, acoustic_gradient=0.0,
                   orientation_jitter=0.0)


@dataclass(frozen=True)
class PolarizationMap:
    """Intensity versus (energy, analyzer or waveplate angle)."""

    grid: EnergyGrid
    angles: np.ndarray          # degrees
    intensity: np.ndarray       # shape (n_energy, n_angle)

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if ang.ndim != 1:
            raise ValidationError("angles must be a 1-D array")
        if inten.shape != (self.grid.n_points, ang.size):
            raise ValidationError("intensity shape must be (n_energy, n_angle)")
        if np.any(inten < 0) or not np.all(np.isfinite(inten)):
            raise ValidationError("intensities must be finite and >= 0")
        ang = ang.copy(); ang.setflags(write=False)
        inten = inten.copy(); inten.setflags(write=False)
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "intensity", inten)


@dataclass(frozen=True)
class MapSlice:
    """One energy bin of a polarization map: summed angular profile."""

    center_energy: float
    profile: np.ndarray
    partial: bool = False


def _energy_bins(grid: EnergyGrid, bin_width_mev: float) -> tuple:
    """(rows, centers, partial) of the non-empty energy bins, by the
    binning rule ``slice_map`` documents: each bin's row slice of the
    grid, its center energy, and whether it is a narrower trailing bin."""
    width_ev = bin_width_mev * 1e-3
    spacing = grid.spacing
    if not bin_width_mev > 0:
        raise ValidationError("bin_width must be > 0")
    if width_ev < spacing * (1.0 - 1e-9):
        raise ValidationError(
            f"bin width {bin_width_mev} meV is smaller than the grid "
            f"spacing {spacing * 1e3:.6g} meV")
    # + 1e-12: a point on a bin edge, to rounding, opens the next bin
    idx = np.floor((grid.points - grid.min_energy) / width_ev + 1e-12)
    # the grid rises, so each bin's points are one run of rows
    b, start = np.unique(idx, return_index=True)
    rows = list(map(slice, start.tolist(), [*start[1:].tolist(), idx.size]))
    lo = grid.min_energy + b * width_ev
    hi = np.minimum(lo + width_ev, grid.max_energy)
    span = grid.max_energy - grid.min_energy
    partial = (span - b * width_ev) < width_ev * (1.0 - 1e-9)
    return rows, 0.5 * (lo + hi), partial


def slice_map(pmap: PolarizationMap, bin_width_mev: float) -> list:
    """Discretize a map into energy bins of the given width (meV).

    Each slice sums the intensity of the grid points whose energy falls
    in its bin; bins tile [min, max] starting at the grid minimum.  A
    trailing bin narrower than bin_width is kept and flagged partial.
    Total counts are conserved exactly.
    """
    rows, centers, partial = _energy_bins(pmap.grid, bin_width_mev)
    return [MapSlice(c, pmap.intensity[r].sum(axis=0), p)
            for r, c, p in zip(rows, centers.tolist(), partial.tolist())]


@dataclass(frozen=True)
class OrientationCurve:
    """Orientation angle and DOLP versus photon energy.

    ``valid`` marks bins with enough signal for the angle to be defined;
    psi is NaN on invalid bins rather than interpolated.  ``weight`` is
    the emission intensity: the lineshape density (1/meV) for a forward
    curve, the summed counts of each bin for an analyzed map.  ``chi``
    and ``rms_residual`` are filled by the analyses that produce them.
    """

    grid: EnergyGrid
    psi: np.ndarray        # degrees, canonical branch, NaN where invalid
    dolp: np.ndarray
    weight: np.ndarray     # intensity: lineshape density or bin counts
    valid: np.ndarray
    chi: np.ndarray | None = None
    rms_residual: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("psi", "dolp", "weight", "valid"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValidationError(f"{name} length must match the grid")
            arr = arr.copy(); arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("chi", "rms_residual"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float).copy()
                if arr.shape != (n,):
                    raise ValidationError(f"{name} length must match the grid")
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def sweep(self) -> float:
        """Total orientation sweep max(psi) - min(psi) over valid bins."""
        psi = self.psi[self.valid.astype(bool)]
        if psi.size == 0:
            return 0.0
        return float(np.max(psi) - np.min(psi))
