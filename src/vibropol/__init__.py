"""Simulation and analysis toolkit for phonon-coupled quantum emitters
with coordinate-dependent transition dipoles."""

from .core import (EnergyGrid, EmitterModel, MapSlice, NumericalError,
                   OrientationCurve, PhononMode, PolarizationMap, Spectrum,
                   ValidationError, condon_limit, make_grid, slice_map,
                   wrap_orientation, KB_MEV)
from .vibronic import (bose_occupation, debye_waller, full_band_grid,
                       lineshape, lineshape_bruteforce, lineshape_density,
                       spectral_function, total_dq)
from .dipole import (ModeRotation, apply_strain_bias, dipole_at_displacement,
                     mode_rotations, opsb_offset, orientation_vs_energy,
                     solve_gradient_for_rotation, thermal_amplification)
from .polarimetry import (MalusFit, PolarizationEllipse, StokesVector,
                          analyze_map, ellipse_to_stokes, extract_stokes_rqwp,
                          fit_malus, malus_intensity, rqwp_intensity,
                          simulate_polarization_map, stokes_to_ellipse)
from .photostats import (G2Histogram, PhotonStream,
                         background_rate_for_fraction, g2_histogram,
                         g2_zero_expected, simulate_stream)
from .config import load_preset, model_from_config, model_to_config

__version__ = "0.1.0"
