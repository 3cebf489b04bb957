from dataclasses import fields

import numpy as np
import pytest

from vibropol import (EmitterModel, PhononMode, Spectrum, ValidationError,
                      load_preset, make_grid, model_from_config,
                      model_to_config, simulate_polarization_map)
from vibropol import io
from vibropol.cli import main
from vibropol.config import parse_config, PRESET_NAMES
from vibropol.core import OrientationCurve, PolarizationMap
from vibropol.io import (FMT, MODE_HEADER, REPORT_HEADER, read_map,
                         read_mode_table, read_rqwp_trace, read_spectrum,
                         write_map, write_mode_table, write_rqwp_trace,
                         write_spectrum)
from vibropol.photostats import G2Histogram


def test_spectrum_round_trip(tmp_path):
    grid = make_grid(1.7001234, 1.9001234, 77)
    spec = Spectrum(grid, np.random.default_rng(0).random(77))
    path = tmp_path / "s.csv"
    write_spectrum(path, spec, config={"temperature_k": 300})
    back = read_spectrum(path)
    assert back.grid.n_points == 77
    assert np.allclose(back.intensity, spec.intensity, rtol=1e-11)
    assert np.allclose(back.grid.points, grid.points, rtol=1e-11)


def test_map_round_trip(tmp_path):
    grid = make_grid(1.82, 1.88, 31)
    angles = np.arange(0.0, 180.0, 30.0)
    pmap = PolarizationMap(grid, angles,
                           np.random.default_rng(1).random((31, 6)))
    path = tmp_path / "m.csv"
    write_map(path, pmap)
    back = read_map(path)
    assert np.allclose(back.intensity, pmap.intensity, rtol=1e-11)
    assert np.allclose(back.angles, angles)


def _map_file(tmp_path):
    """(path, comment and header lines, data lines as an energy x angle
    array) of the strong 300 K map on ZPL +- 30 meV: 61 x 18 cells."""
    model = load_preset("strong_coupling")
    grid = make_grid(model.zpl_energy - 0.03, model.zpl_energy + 0.03, 61)
    path = tmp_path / "m.csv"
    write_map(path, simulate_polarization_map(model, grid,
                                              np.arange(0.0, 180.0, 10.0)))
    lines = path.read_text().splitlines()
    return path, lines[:-61 * 18], np.array(lines[-61 * 18:]).reshape(61, 18)


def test_map_rows_read_the_same_in_any_order(tmp_path):
    # the reader took the rows as energy-major, ascending in energy, and
    # sorted the angles of the first energy only: an angle-major copy read
    # off by 1.0 of the peak, an energy-descending one by 0.095
    path, head, rows = _map_file(tmp_path)
    want = read_map(path)
    for order in (rows.T, rows[::-1]):
        copy = tmp_path / "copy.csv"
        copy.write_text("\n".join([*head, *order.ravel()]) + "\n")
        got = read_map(copy)
        for x, y in ((got.intensity, want.intensity),
                     (got.angles, want.angles),
                     (got.grid.points, want.grid.points)):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))


def test_map_with_a_repeated_cell_exits_2(tmp_path, capsys):
    # the last row repeats the first, so the last cell is missing, yet the
    # energies and angles still span 61 x 18 rows: it was read as a map
    path, head, rows = _map_file(tmp_path)
    rows[-1, -1] = rows[0, 0]
    path.write_text("\n".join([*head, *rows.ravel()]) + "\n")
    with pytest.raises(ValidationError, match="missing or repeated"):
        read_map(path)
    assert main(["analyze-map", "--in", str(path), "--out",
                 str(tmp_path / "r.csv"), "--quiet"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_mode_table_round_trip(tmp_path):
    modes = (PhononMode(152.0, 0.4, 0.21, 0.11, -60.0),
             PhononMode(173.0, 0.86, 0.21, 0.23, 80.0))
    path = tmp_path / "modes.csv"
    write_mode_table(path, modes)
    back = read_mode_table(path)
    assert back == modes


def test_rqwp_trace_round_trip(tmp_path):
    angles = np.arange(16) * 22.5
    inten = 0.5 + 0.1 * np.sin(np.deg2rad(4 * angles))
    path = tmp_path / "t.csv"
    write_rqwp_trace(path, angles, inten)
    a, i = read_rqwp_trace(path)
    assert np.allclose(a, angles)
    assert np.allclose(i, inten, rtol=1e-11)


def test_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValidationError):
        read_spectrum(path)


def test_parse_config():
    cfg = parse_config("a = 1\n# comment\nb = two  # trailing\n\n")
    assert cfg == {"a": "1", "b": "two"}
    with pytest.raises(ValidationError):
        parse_config("no separator here")


def test_model_config_round_trip():
    model = load_preset("strong_coupling")
    back = model_from_config(model_to_config(model))
    assert back == model


def test_config_overrides_win():
    model = load_preset("weak_coupling", temperature_k=6.0, strain_bias=0.5)
    assert model.temperature == 6.0
    assert model.strain_bias == 0.5


def test_missing_required_key():
    with pytest.raises(ValidationError):
        model_from_config({"zpl_linewidth_mev": "1.0"})


def test_malformed_mode_row():
    cfg = {"zpl_energy_ev": "1.8", "zpl_linewidth_mev": "1.0",
           "mode1": "165, 1.0, 0.3"}
    with pytest.raises(ValidationError):
        model_from_config(cfg)


def test_unknown_preset_names_available():
    with pytest.raises(ValidationError, match="nope"):
        load_preset("nope")


def test_preset_names_load():
    for name in PRESET_NAMES:
        model = load_preset(name)
        assert len(model.modes) == 4


def test_bad_config_values_are_validation_errors():
    base = {"zpl_energy_ev": "1.8", "zpl_linewidth_mev": "1.0"}
    for key, value in (("mode1", "100, 1, 0.1, abc, 0"),
                       ("mode1", "100, 1, 0.1, inf, 0"),
                       ("equilibrium_dipole", "inf"),
                       ("strain_bias", "nan"),
                       ("acoustic_grad_direction_deg", "-inf")):
        with pytest.raises(ValidationError, match="mode1|finite"):
            model_from_config({**base, key: value})


# every field off its default, the acoustic direction given
_ALL_FIELDS_SET = EmitterModel(
    zpl_energy=1.9, equilibrium_angle=-30.0, equilibrium_dipole=2.0,
    modes=(PhononMode(150.0, 0.5, 0.2, 0.1, 120.0),
           PhononMode(170.0, 0.7, 0.3, 0.2, -45.0)),
    zpl_linewidth=0.5, acoustic_coupling=1.5, acoustic_cutoff=3.0,
    temperature=6.0, strain_bias=-0.5, zpl_profile="gaussian",
    acoustic_gradient=0.02, acoustic_grad_direction=200.0,
    orientation_jitter=3.0)


@pytest.mark.parametrize("model", [
    _ALL_FIELDS_SET, *(load_preset(name) for name in PRESET_NAMES)])
def test_every_field_round_trips_through_the_config(model):
    assert all(getattr(_ALL_FIELDS_SET, f.name) != f.default
               for f in fields(EmitterModel))
    assert model_from_config(model_to_config(model)) == model


def test_a_left_out_key_takes_the_field_default():
    model = model_from_config({"zpl_energy_ev": "1.8",
                               "zpl_linewidth_mev": "1.0"})
    assert model == EmitterModel(zpl_energy=1.8, zpl_linewidth=1.0, modes=())


@pytest.mark.parametrize("cfg,overrides,key", [
    ({"temprature_k": "6"}, {}, "temprature_k"),            # misspelled
    ({}, {"temperature": 6.0}, "temperature"),              # field name
    ({"mode1": "160, 1, 0.2, 0.1, 10", "mode3": "170, 1, 0.2, 0.1, 10"},
     {}, "mode3"),                                          # gap after mode1
])
def test_unknown_config_key_is_refused(cfg, overrides, key):
    base = {"zpl_energy_ev": "1.8", "zpl_linewidth_mev": "1.0"}
    with pytest.raises(ValidationError, match=f"^unknown config key '{key}'$"):
        model_from_config({**base, **cfg}, **overrides)
    if overrides:
        with pytest.raises(ValidationError, match=f"'{key}'"):
            load_preset("strong_coupling", **overrides)


def test_a_later_line_overrides_an_earlier_one():
    cfg = parse_config("zpl_energy_ev = 1.8\nzpl_linewidth_mev = 1\n"
                       "temperature_k = 6\ntemperature_k = 77\n")
    assert model_from_config(cfg).temperature == 77.0


# ------------------------------------------- byte identity of the CSV layer
#
# Test-only copies of the row-by-row writers and the line-by-line reader
# that the table writer and reader replaced.  The files of the new writer
# must equal theirs byte for byte, and the new reader must return the same
# float64 bits.

def _old_header_block(config):
    if not config:
        return ""
    return "\n".join(f"# {k} = {config[k]}" for k in sorted(config)) + "\n"


def _old_write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _old_write_spectrum(path, spectrum, config=None, abscissa="energy_ev"):
    lines = [_old_header_block(config) + f"{abscissa},intensity"]
    for e, i in zip(spectrum.grid.points, spectrum.intensity):
        lines.append(f"{FMT % e},{FMT % i}")
    _old_write(path, lines)


def _old_write_map(path, pmap, config=None):
    lines = [_old_header_block(config) + "energy_ev,angle_deg,intensity"]
    for i, e in enumerate(pmap.grid.points):
        for j, a in enumerate(pmap.angles):
            lines.append(f"{FMT % e},{FMT % a},{FMT % pmap.intensity[i, j]}")
    _old_write(path, lines)


def _old_write_mode_table(path, modes, config=None):
    lines = [_old_header_block(config) + MODE_HEADER]
    for m in modes:
        lines.append(",".join(FMT % v for v in (
            m.energy_mev, m.partial_hr, m.partial_dq,
            m.grad_magnitude, m.grad_direction)))
    _old_write(path, lines)


def _old_write_analysis_report(path, curve, config=None):
    chi = curve.chi if curve.chi is not None else np.zeros(curve.grid.n_points)
    rms = (curve.rms_residual if curve.rms_residual is not None
           else np.full(curve.grid.n_points, np.nan))
    lines = [_old_header_block(config) + REPORT_HEADER]
    for k, e in enumerate(curve.grid.points):
        lines.append(",".join((
            FMT % e, FMT % curve.psi[k], FMT % curve.dolp[k],
            FMT % curve.psi[k], FMT % chi[k], FMT % curve.dolp[k],
            "1" if curve.valid[k] else "0", FMT % rms[k])))
    _old_write(path, lines)


def _old_write_rqwp_trace(path, qwp_angles, intensity, config=None):
    lines = [_old_header_block(config) + "qwp_angle_deg,intensity"]
    for a, i in zip(qwp_angles, intensity):
        lines.append(f"{FMT % a},{FMT % i}")
    _old_write(path, lines)


def _old_write_g2_histogram(path, hist, config=None):
    lines = [_old_header_block(config) + "tau_ns,coincidences"]
    for t, c in zip(hist.bin_centers, hist.coincidences):
        lines.append(f"{FMT % t},{int(c)}")
    lines.append(f"# g2_zero={FMT % hist.g2_zero} err={FMT % hist.g2_zero_err}")
    _old_write(path, lines)


def _old_read_rows(path, expected_header):
    header = None
    rows = []
    footer = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("# ").strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    footer[k.strip()] = v.strip()
                continue
            if header is None:
                header = line
                if header != expected_header:
                    raise ValidationError("unexpected header")
                continue
            rows.append(line.split(","))
    if header is None:
        raise ValidationError(f"no data found in {path}")
    return rows, footer


_SPECIAL = np.array([0.0, -0.0, 1.0, 7.0, 1e12, 123456789012.0, 1e16, 0.1,
                     1.0 / 3.0, 1e-300, 5e-324, 1e300, 1.7976931348623157e308,
                     -1e-300, -1e300, -2.0])
_NON_FINITE = np.array([np.nan, -np.nan, np.inf, -np.inf])


def _values(rng, n, repeated, finite=True, non_negative=False):
    """n floats over many decades, seeded with special values.  With
    ``repeated``, most cells repeat a few integer-valued or special values,
    so both ways the table writer formats a column are exercised."""
    pool = np.concatenate([_SPECIAL] + ([] if finite else [_NON_FINITE]))
    if repeated:
        x = rng.poisson(3.0, n).astype(float)
    else:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    pick = rng.random(n) < (0.4 if repeated else 0.1)
    x[pick] = rng.choice(pool, pick.sum())
    return np.where(x < 0, -x, x) if non_negative else x    # keeps -0.0


def _io_cases(rng, n):
    """(header, new writer, old writer, args) for every file format; the
    grid-based formats get at least two rows, the others n."""
    lo, hi = [(1.8, 1.9), (1e-300, 3e-300), (1e300, 3e300), (-5.0, 5.0),
              (0.0, 1e-3)][rng.integers(5)]
    grid = make_grid(lo, hi, max(n, 2))
    ng = grid.n_points
    angles = np.unique(np.round(rng.random(5) * 180.0, 1))
    cfg = {"seed": int(rng.integers(100)), "note": "x = y"}
    curve = OrientationCurve(
        grid, _values(rng, ng, False, finite=False),
        _values(rng, ng, True, finite=False), _values(rng, ng, False),
        rng.random(ng) < 0.7, chi=_values(rng, ng, True, finite=False),
        rms_residual=_values(rng, ng, False, finite=False))
    # a non-bool valid column is written by truth value
    bare = OrientationCurve(grid, curve.psi, curve.dolp, curve.weight,
                            rng.choice([0.0, -0.0, 1.0, 2.0, np.nan], ng))
    hists = [G2Histogram(_values(rng, n, False, finite=False), counts, 50.0,
                         float(rng.choice(_NON_FINITE)),
                         float(_values(rng, 1, False)[0]))
             for counts in (rng.poisson(2.0, n),
                            rng.standard_normal(n) * 10.0)]
    energy = _values(rng, n, False, non_negative=True)
    modes = tuple(PhononMode(*row) for row in np.column_stack(
        [np.where(energy > 0, energy, 1.0)]
        + [_values(rng, n, r, non_negative=True) for r in (True, True, False)]
        + [_values(rng, n, True)]).tolist())
    cells = ng * angles.size
    return [
        ("energy_ev,intensity", io.write_spectrum, _old_write_spectrum,
         (Spectrum(grid, _values(rng, ng, False, non_negative=True)), cfg)),
        ("energy_ev,intensity", io.write_spectrum, _old_write_spectrum,
         (Spectrum(grid, _values(rng, ng, True, non_negative=True)), None)),
        *[("energy_ev,angle_deg,intensity", io.write_map, _old_write_map,
           (PolarizationMap(grid, angles, _values(
               rng, cells, r, non_negative=True).reshape(ng, angles.size)),
            cfg)) for r in (True, False)],
        (MODE_HEADER, io.write_mode_table, _old_write_mode_table,
         (modes, cfg)),
        (REPORT_HEADER, io.write_analysis_report, _old_write_analysis_report,
         (curve, cfg)),
        (REPORT_HEADER, io.write_analysis_report, _old_write_analysis_report,
         (bare, None)),
        ("qwp_angle_deg,intensity", io.write_rqwp_trace,
         _old_write_rqwp_trace,
         (_values(rng, n, True, finite=False),
          _values(rng, n, False, finite=False), cfg)),
        # integer arrays in float columns, beyond where %d and FMT agree
        ("qwp_angle_deg,intensity", io.write_rqwp_trace,
         _old_write_rqwp_trace,
         (rng.integers(-2 ** 62, 2 ** 62, n), rng.integers(0, 9, n), None)),
        *[("tau_ns,coincidences", io.write_g2_histogram,
           _old_write_g2_histogram, (hist, cfg)) for hist in hists],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 40, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_writer_and_reader_match_row_by_row_io(tmp_path, seed, n):
    rng = np.random.default_rng(seed)
    for k, (header, new, old, args) in enumerate(_io_cases(rng, n)):
        new_path, old_path = tmp_path / f"new{k}.csv", tmp_path / f"old{k}.csv"
        new(new_path, *args)
        old(old_path, *args)
        assert new_path.read_bytes() == old_path.read_bytes(), (header, k)
        rows, footer = io._read_rows(new_path, header)
        old_rows, old_footer = _old_read_rows(new_path, header)
        expected = np.array(old_rows, dtype=float).reshape(rows.shape)
        assert rows.dtype == np.float64
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
        assert footer == old_footer


def test_reader_matches_line_by_line_reader_on_untidy_files(tmp_path):
    text = ("\n  \n# a = 1\n#b=2 c=3\n   # spaced = yes\n"
            "  energy_ev,angle_deg,intensity  \n"
            "1.8,0,5\n\n \t \n  1.8,90, 7 \n# mid = body\n\t1.9,0,-0\n"
            "1.9,90,1e-300\n  # tail=1 err=2\n\n")
    path = tmp_path / "untidy.csv"
    path.write_text(text)
    header = "energy_ev,angle_deg,intensity"
    rows, footer = io._read_rows(path, header)
    old_rows, old_footer = _old_read_rows(path, header)
    assert rows.shape == (4, 3)
    assert np.array_equal(rows.view(np.int64),
                          np.array(old_rows, dtype=float).view(np.int64))
    assert footer == old_footer
    assert read_map(path).intensity.tolist() == [[5.0, 7.0], [-0.0, 1e-300]]
