import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibropol import (EnergyGrid, EmitterModel, PhononMode, PolarizationMap,
                      Spectrum, ValidationError, condon_limit, make_grid,
                      slice_map, wrap_orientation)
from vibropol.core import (OrientationCurve, _energy_bins,
                           wrap_orientation_scalar)


def test_two_point_grid():
    g = make_grid(1.80, 1.90, 2)
    assert np.allclose(g.points, [1.80, 1.90])


def test_grid_spacing_1mev():
    g = make_grid(1.60, 1.90, 301)
    assert abs(g.spacing - 1e-3) < 1e-15


def test_grid_rejects_inverted_bounds():
    with pytest.raises(ValidationError):
        make_grid(1.90, 1.80, 10)


def test_grid_rejects_bad_n():
    with pytest.raises(ValidationError):
        make_grid(1.0, 2.0, 1)
    with pytest.raises(ValidationError):
        make_grid(np.inf, 2.0, 5)


def test_grid_spacing_uniform():
    g = make_grid(1.2345, 2.6789, 1777)
    d = np.diff(g.points)
    assert np.ptp(d) < 1e-12 * d[0]


def test_wrap_orientation_branch():
    assert wrap_orientation_scalar(90.0) == -90.0
    assert wrap_orientation_scalar(-90.0) == -90.0
    assert abs(wrap_orientation_scalar(135.0) + 45.0) < 1e-12
    vals = wrap_orientation(np.array([0.0, 180.0, 359.0, -91.0]))
    assert np.all(vals >= -90.0) and np.all(vals < 90.0)
    assert abs(vals[1] - 0.0) < 1e-12


def test_spectrum_validation():
    g = make_grid(1.0, 2.0, 3)
    with pytest.raises(ValidationError):
        Spectrum(g, [1.0, 2.0])
    with pytest.raises(ValidationError):
        Spectrum(g, [1.0, -2.0, 0.0])
    s = Spectrum(g, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        s.intensity[0] = 5.0


def _mode(**kw):
    base = dict(energy_mev=165.0, partial_hr=1.0, partial_dq=0.3)
    base.update(kw)
    return PhononMode(**base)


def test_phonon_mode_validation():
    with pytest.raises(ValidationError):
        _mode(energy_mev=0.0)
    with pytest.raises(ValidationError):
        _mode(partial_hr=-0.1)
    # a gradient direction is a vector angle, kept as given
    assert _mode(grad_direction=135.0).grad_direction == 135.0


def _model(**kw):
    base = dict(zpl_energy=1.848, equilibrium_angle=0.0,
                equilibrium_dipole=1.0, modes=(_mode(),), zpl_linewidth=1.0)
    base.update(kw)
    return EmitterModel(**base)


def test_model_validation():
    with pytest.raises(ValidationError):
        _model(zpl_linewidth=0.0)
    with pytest.raises(ValidationError):
        _model(temperature=-5.0)
    with pytest.raises(ValidationError):
        _model(strain_bias=1.5)
    with pytest.raises(ValidationError):
        _model(zpl_profile="voigt")
    assert _model(equilibrium_angle=110.0).equilibrium_angle == 110.0


def test_integer_fields_are_stored_as_floats():
    # an int HR factor once lost half the lines of a 0 K ladder to int64
    # overflow: 21 of 41 lines, total weight 0.105, and no error
    from vibropol.vibronic import mode_line_weights
    m = PhononMode(energy_mev=60, partial_hr=20, partial_dq=0.1)
    assert all(type(getattr(m, f)) is float
               for f in ("energy_mev", "partial_hr", "partial_dq",
                         "grad_magnitude", "grad_direction"))
    ms, w = mode_line_weights(m, 0.0)
    ref_ms, ref_w = mode_line_weights(PhononMode(60.0, 20.0, 0.1), 0.0)
    ms, w = ms[ms <= 40], w[ms <= 40]
    ref_ms, ref_w = ref_ms[ref_ms <= 40], ref_w[ref_ms <= 40]
    assert ms.size == 41
    assert np.array_equal(ms, ref_ms) and np.array_equal(w, ref_w)
    assert abs(w.sum() - 1.0) < 1e-4
    model = _model(zpl_linewidth=1, temperature=300, strain_bias=0,
                   acoustic_grad_direction=90)
    assert all(type(getattr(model, f)) is float
               for f in ("zpl_linewidth", "temperature", "strain_bias",
                         "acoustic_grad_direction", "acoustic_cutoff"))


def test_acoustic_direction_default_perpendicular():
    # psi0 - 90 for every psi0, a negative one included; a given
    # direction is kept as given
    assert _model(equilibrium_angle=10.0).acoustic_direction == -80.0
    assert _model(equilibrium_angle=-30.0).acoustic_direction == -120.0
    assert _model(acoustic_grad_direction=95.0).acoustic_direction == 95.0


def test_condon_limit_strips_gradients():
    m = _model(modes=(_mode(grad_magnitude=0.5, grad_direction=30.0),),
               acoustic_gradient=0.1, orientation_jitter=2.0)
    c = condon_limit(m)
    assert all(mm.grad_magnitude == 0.0 for mm in c.modes)
    assert c.acoustic_gradient == 0.0
    assert c.orientation_jitter == 0.0
    # coupling strengths untouched
    assert c.total_hr == m.total_hr


def _uniform_map(n_e=300, n_a=6, value=1.0):
    grid = make_grid(1.600, 1.600 + (n_e - 1) * 1e-3, n_e)
    angles = np.arange(0.0, 180.0, 180.0 / n_a)
    return PolarizationMap(grid, angles, np.full((n_e, n_a), value))


def test_slice_map_integer_tiling():
    slices = slice_map(_uniform_map(), 4.0)
    assert len(slices) == 75
    for s in slices:
        assert np.allclose(s.profile, 4.0)


def test_slice_map_uniform_profiles_identical():
    slices = slice_map(_uniform_map(n_e=301), 4.0)
    full = [s for s in slices if not s.partial]
    assert len(full) == 75
    assert slices[-1].partial
    for s in full:
        assert np.allclose(s.profile, full[0].profile)


def test_slice_map_conserves_counts():
    rng = np.random.default_rng(7)
    grid = make_grid(1.7, 1.75, 83)
    angles = np.arange(0.0, 180.0, 15.0)
    pmap = PolarizationMap(grid, angles, rng.random((83, angles.size)))
    for width in (1.0, 2.7, 4.0, 11.0):
        slices = slice_map(pmap, width)
        total = sum(s.profile.sum() for s in slices)
        assert abs(total - pmap.intensity.sum()) < 1e-9 * pmap.intensity.sum()


def test_slice_map_rejects_too_narrow_bin():
    with pytest.raises(ValidationError):
        slice_map(_uniform_map(), 0.5)


def _mask_bins(grid, bin_width_mev):
    """The binning rule one boolean mask a bin at a time: (rows, center,
    partial) of each non-empty bin, after the same checks."""
    width_ev = bin_width_mev * 1e-3
    spacing = grid.spacing
    if not bin_width_mev > 0:
        raise ValidationError("bin_width must be > 0")
    if width_ev < spacing * (1.0 - 1e-9):
        raise ValidationError(
            f"bin width {bin_width_mev} meV is smaller than the grid "
            f"spacing {spacing * 1e3:.6g} meV")
    energies = grid.points
    idx = np.floor((energies - grid.min_energy) / width_ev + 1e-12).astype(int)
    span = grid.max_energy - grid.min_energy
    bins = []
    for b in range(idx.max() + 1):
        sel = idx == b
        if not np.any(sel):
            continue
        lo = grid.min_energy + b * width_ev
        hi = min(lo + width_ev, grid.max_energy)
        bins.append((np.flatnonzero(sel), 0.5 * (lo + hi),
                     (span - b * width_ev) < width_ev * (1.0 - 1e-9)))
    return bins


@st.composite
def _grid_and_width(draw):
    """A grid and a bin width (meV): any width of at least the spacing, one
    within 1e-9 of it, or one that the grid's span ends within 1e-9 of a
    multiple of."""
    lo = draw(st.floats(0.05, 3.0))
    width = draw(st.floats(0.01, 20.0))          # meV
    kind = draw(st.sampled_from(["any", "spacing", "edge"]))
    if kind == "edge":
        n_bins, per_bin = draw(st.integers(1, 60)), draw(st.integers(1, 30))
        off = draw(st.sampled_from([0.0, 1e-12, -1e-12])
                   | st.floats(-1e-9, 1e-9))
        span = n_bins * width * 1e-3 * (1.0 + off)
        return make_grid(lo, lo + span, n_bins * per_bin + 1), width
    grid = make_grid(lo, lo + draw(st.floats(1e-4, 0.3)),
                     draw(st.integers(2, 2000)))
    if kind == "spacing":
        return grid, grid.spacing * 1e3 * (1.0 + draw(st.floats(-2e-9, 2e-9)))
    return grid, grid.spacing * 1e3 * draw(st.floats(1.0, 300.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_grid_and_width())
def test_bin_table_is_the_mask_rule(case):
    grid, width = case
    try:
        ref = _mask_bins(grid, width)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            _energy_bins(grid, width)
        return
    rows, centers, partial = _energy_bins(grid, width)
    assert len(rows) == centers.size == partial.size == len(ref)
    assert partial.dtype == bool
    points = np.arange(grid.n_points)
    for r, c, p, (sel, center, part) in zip(rows, centers, partial, ref):
        assert np.array_equal(points[r], sel)
        assert c.hex() == center.hex() and p == part


def test_sweep_without_a_valid_bin_is_zero():
    c = OrientationCurve(make_grid(1.0, 2.0, 3), np.full(3, np.nan),
                         np.zeros(3), np.ones(3), np.zeros(3, dtype=bool))
    assert c.sweep() == 0.0


def test_orientation_curve_shape_checks():
    g = make_grid(1.0, 2.0, 4)
    with pytest.raises(ValidationError):
        OrientationCurve(g, np.zeros(3), np.zeros(4), np.zeros(4),
                         np.zeros(4, dtype=bool))
    c = OrientationCurve(g, np.array([0.0, 10.0, np.nan, 30.0]),
                         np.zeros(4), np.ones(4),
                         np.array([True, True, False, True]))
    assert abs(c.sweep() - 30.0) < 1e-12
