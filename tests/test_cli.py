import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import vibropol.cli as cli
import vibropol.dipole as dipole
import vibropol.polarimetry as polarimetry
from vibropol.cli import main
from vibropol.io import (read_map, read_spectrum, write_rqwp_trace,
                         _read_rows)
from vibropol.polarimetry import StokesVector, rqwp_intensity


def _run(argv):
    return main(argv)


def _g2_footer(path):
    # footer line: "# g2_zero=<v> err=<e>"
    _, footer = _read_rows(path, "tau_ns,coincidences")
    value = footer["g2_zero"]
    g2 = float(value.split()[0])
    err = float(value.split("err=")[1])
    return g2, err


def test_spectrum_strong_t0_zpl_weight(tmp_path):
    out = tmp_path / "spec.csv"
    assert _run(["spectrum", "--preset", "strong_coupling", "--temp", "0",
                 "--out", str(out), "--quiet"]) == 0
    spec = read_spectrum(out)
    e = spec.grid.points
    total = np.trapezoid(spec.intensity, e * 1e3)
    zpl = 1.848
    mask = np.abs(e - zpl) * 1e3 <= 40.0
    w = np.trapezoid(spec.intensity[mask], e[mask] * 1e3)
    assert abs(total - 1.0) < 1e-4
    assert abs(w - math.exp(-5.96)) < 1e-4


def test_spectrum_explicit_grid_normalized(tmp_path):
    out = tmp_path / "spec.csv"
    assert _run(["spectrum", "--preset", "weak_coupling", "--temp", "0",
                 "--grid", "1.3:2.0:2001", "--out", str(out),
                 "--quiet"]) == 0
    spec = read_spectrum(out)
    area = np.trapezoid(spec.intensity, spec.grid.points * 1e3)
    assert abs(area - 1.0) < 1e-4


def test_missing_preset_exits_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["spectrum", "--preset", "no_such_preset",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code != 0
    assert "no_such_preset" in capsys.readouterr().err


def test_spectral_function_area(tmp_path):
    out = tmp_path / "sf.csv"
    assert _run(["spectral-function", "--preset", "weak_coupling",
                 "--out", str(out), "--quiet"]) == 0
    spec = read_spectrum(out, abscissa="energy_mev")
    area = np.trapezoid(spec.intensity, spec.grid.points)
    assert abs(area - 2.71) < 1e-5


def test_simulate_map_poisson_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate-map", "--preset", "weak_coupling", "--noise", "poisson",
            "--seed", "42", "--grid", "1.83:1.86:61", "--quiet"]
    assert _run(argv + ["--out", str(a)]) == 0
    assert _run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_map_analyze_round_trip(tmp_path):
    mp = tmp_path / "map.csv"
    rep = tmp_path / "report.csv"
    assert _run(["simulate-map", "--preset", "strong_coupling",
                 "--out", str(mp), "--quiet"]) == 0
    assert _run(["analyze-map", "--in", str(mp), "--out", str(rep),
                 "--quiet"]) == 0
    rows, _ = _read_rows(
        rep, "energy_ev,theta0_deg,dolp,psi_deg,chi_deg,dop,valid,"
             "rms_residual")
    data = np.array(rows, dtype=float)
    valid = data[:, 6].astype(bool)
    psi = data[valid, 1]
    assert abs((psi.max() - psi.min()) - 40.0) <= 2.0


def test_fit_malus_command(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    angles = np.arange(12) * 15.0
    inten = (100.0 * np.cos(np.deg2rad(angles - 30.0)) ** 2 + 20.0)
    trace.write_text("angle_deg,intensity\n" + "\n".join(
        f"{a},{i:.12g}" for a, i in zip(angles, inten)) + "\n")
    assert _run(["fit-malus", "--in", str(trace)]) == 0
    out = capsys.readouterr().out
    got = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(got["theta0_deg"]) - 30.0) < 1e-9
    assert abs(float(got["dolp"]) - 100.0 / 140.0) < 1e-9


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_malus_rejects_non_finite_intensity(tmp_path, capsys, bad):
    # a 6-angle trace with one non-finite cell: exit 2, as stokes does
    trace = tmp_path / "trace.csv"
    cells = ["5", "8", bad, "5", "2", "3"]
    trace.write_text("angle_deg,intensity\n" + "".join(
        f"{a},{c}\n" for a, c in zip(range(0, 180, 30), cells)))
    assert _run(["fit-malus", "--in", str(trace), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation:")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--out", "x.csv"], ["spectral-function", "--out", "x.csv"],
    ["analyze-map", "--in", "x.csv", "--out", "y.csv"],
    ["fit-malus", "--in", "x.csv"], ["stokes", "--in", "x.csv"],
    ["modes", "--in", "x.csv"], ["roundtrip"]])
def test_seed_only_where_there_is_randomness(capsys, argv):
    # simulate-map and g2 draw random numbers; no other command takes --seed
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_stokes_command(tmp_path, capsys):
    trace = tmp_path / "rqwp.csv"
    angles = np.arange(16) * 22.5
    s = StokesVector(1.0, 0.6, 0.3, 0.2)
    write_rqwp_trace(trace, angles, rqwp_intensity(s, angles))
    assert _run(["stokes", "--in", str(trace)]) == 0
    got = dict(line.split(" = ")
               for line in capsys.readouterr().out.strip().splitlines())
    for key, val in (("s0", 1.0), ("s1", 0.6), ("s2", 0.3), ("s3", 0.2)):
        assert abs(float(got[key]) - val) < 1e-12


def test_stokes_rejects_a_non_finite_first_angle(tmp_path, capsys):
    # the angle span was NaN, so the whole-rotation check crashed
    trace = tmp_path / "rqwp.csv"
    angles = np.arange(16) * 22.5
    trace.write_text("qwp_angle_deg,intensity\nnan,1\n" + "".join(
        f"{a},1\n" for a in angles[1:]))
    assert _run(["stokes", "--in", str(trace)]) == 2
    _assert_one_line_error(capsys, "error: validation: angles must be finite")


def test_g2_command_signal_fraction(tmp_path):
    out = tmp_path / "g2.csv"
    assert _run(["g2", "--signal-fraction", "0.943", "--duration", "0.2",
                 "--seed", "5", "--out", str(out), "--quiet"]) == 0
    g2, _ = _g2_footer(out)
    assert abs(g2 - 0.11) < 0.02


def test_g2_pure_signal(tmp_path):
    out = tmp_path / "g2.csv"
    assert _run(["g2", "--signal-fraction", "1", "--duration", "0.05",
                 "--out", str(out), "--quiet"]) == 0
    g2, _ = _g2_footer(out)
    assert g2 < 0.05


def test_g2_pure_background(tmp_path):
    out = tmp_path / "g2.csv"
    assert _run(["g2", "--signal-prob", "0", "--background-rate", "2e6",
                 "--duration", "0.05", "--out", str(out), "--quiet"]) == 0
    g2, err = _g2_footer(out)
    assert abs(g2 - 1.0) < 4.0 * err


def test_modes_command(tmp_path, capsys):
    table = tmp_path / "modes.csv"
    table.write_text(
        "energy_mev,partial_hr,partial_dq,grad_magnitude,grad_direction_deg\n"
        "152,0.4,0.21,0.1,-60\n173,0.86,0.21,0.2,80\n")
    assert _run(["modes", "--in", str(table)]) == 0
    out = capsys.readouterr().out
    assert "2 modes" in out and "1.26" in out


def test_modes_command_keeps_a_vector_direction(tmp_path):
    # a gradient direction is a vector angle: 120 deg is not -60 deg
    table, out = tmp_path / "modes.csv", tmp_path / "out.csv"
    table.write_text(
        "energy_mev,partial_hr,partial_dq,grad_magnitude,grad_direction_deg\n"
        "152,0.4,0.21,0.1,120\n")
    assert _run(["modes", "--in", str(table), "--out", str(out),
                 "--quiet"]) == 0
    rows, _ = _read_rows(out, "energy_mev,partial_hr,partial_dq,"
                              "grad_magnitude,grad_direction_deg")
    assert rows[0, 4] == 120.0


def _analyzed_psi(tmp_path, name, flags):
    mp, rep = tmp_path / f"{name}-map.csv", tmp_path / f"{name}-report.csv"
    assert _run(["simulate-map", *flags, "--out", str(mp), "--quiet"]) == 0
    assert _run(["analyze-map", "--in", str(mp), "--out", str(rep),
                 "--quiet"]) == 0
    rows, _ = _read_rows(rep, "energy_ev,theta0_deg,dolp,psi_deg,chi_deg,"
                              "dop,valid,rms_residual")
    return rows[:, 3], rows[:, 6].astype(bool)


def test_turned_preset_maps_to_the_turned_orientation(tmp_path):
    # strong_coupling with its lab frame turned by +20 deg: psi0, the
    # acoustic direction and every mode direction.  Read as axes, the
    # mode directions 90 and 95 deg pointed the opposite way and the
    # strain bias exited 2
    from vibropol import load_preset
    modes = load_preset("strong_coupling").modes
    cfg = tmp_path / "turned.cfg"
    cfg.write_text("equilibrium_angle_deg = 20\n"
                   "acoustic_grad_direction_deg = -70\n" + "".join(
                       f"mode{k} = {m.energy_mev!r}, {m.partial_hr!r}, "
                       f"{m.partial_dq!r}, {m.grad_magnitude!r}, "
                       f"{m.grad_direction + 20.0!r}\n"
                       for k, m in enumerate(modes, start=1)))
    flags = ["--preset", "strong_coupling"]
    psi, valid = _analyzed_psi(tmp_path, "ref", flags)
    psi_t, valid_t = _analyzed_psi(tmp_path, "turned",
                                   [*flags, "--config", str(cfg)])
    assert np.any(valid) and np.array_equal(valid_t, valid)
    dev = (psi_t[valid] - psi[valid] - 20.0 + 90.0) % 180.0 - 90.0
    assert np.abs(dev).max() < 1e-8


def test_missing_input_file_is_io_error(tmp_path):
    assert _run(["analyze-map", "--in", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "r.csv"), "--quiet"]) == 4


def test_bad_grid_is_validation_error(tmp_path):
    assert _run(["spectrum", "--preset", "weak_coupling",
                 "--grid", "2.0:1.0:100", "--out", str(tmp_path / "s.csv"),
                 "--quiet"]) == 2


def test_roundtrip_command_passes(tmp_path):
    out = tmp_path / "report.csv"
    assert _run(["roundtrip", "--out", str(out), "--quiet"]) == 0
    text = out.read_text()
    assert "FAIL" not in text
    assert "sweep_deg" in text and "opsb_offset_deg" in text


# ------------------------------------------- bad input ends before compute

def _assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("angles,mode,reason", [
    # an analyzer map's half turn is no whole RQWP rotation
    ("0:170:10", "rqwp", "samples must cover whole rotations"),
    ("0:80:10", "analyzer", "samples must span at least 135 deg"),
])
def test_unusable_map_angles_exit_before_the_bins(tmp_path, capsys, angles,
                                                  mode, reason):
    mp, rep = tmp_path / "map.csv", tmp_path / "report.csv"
    assert _run(["simulate-map", "--preset", "weak_coupling", "--grid",
                 "1.82:1.88:61", "--angles", angles, "--out", str(mp),
                 "--quiet"]) == 0
    capsys.readouterr()
    assert _run(["analyze-map", "--in", str(mp), "--mode", mode,
                 "--out", str(rep), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: validation: {reason}")
    assert len(err.strip().splitlines()) == 1
    assert not rep.exists()


@pytest.mark.parametrize("argv", [
    ["g2", "--bin-width", "nan"],
    ["g2", "--window", "inf"],
    ["spectral-function", "--preset", "weak_coupling", "--broadening", "nan"],
    ["spectral-function", "--preset", "weak_coupling", "--broadening", "0"],
    # would need about 1.2e14 grid points
    ["spectral-function", "--preset", "weak_coupling", "--broadening", "1e-9"],
    ["simulate-map", "--preset", "weak_coupling", "--counts", "-5"],
    ["simulate-map", "--preset", "weak_coupling", "--counts", "0"],
    ["simulate-map", "--preset", "weak_coupling", "--counts", "nan"],
    ["simulate-map", "--preset", "weak_coupling", "--counts", "1e300",
     "--noise", "poisson"],
    ["simulate-map", "--preset", "weak_coupling", "--angles", "0:inf:10"],
    ["simulate-map", "--preset", "weak_coupling", "--angles", "0:180:1e-12"],
    ["spectrum", "--preset", "weak_coupling", "--temp", "nan"],
])
def test_bad_float_flag_is_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation:")
    assert not out.exists()


@pytest.mark.parametrize("argv,reason", [
    (["spectrum", "--preset", "weak_coupling", "--grid", "1.8:1.9"],
     "grid must be min:max:n, got '1.8:1.9'"),
    (["spectrum", "--preset", "weak_coupling", "--grid", "1.8:x:11"],
     "bad grid '1.8:x:11'"),
    (["simulate-map", "--preset", "weak_coupling", "--angles", "0:180"],
     "angles must be start:stop:step, got '0:180'"),
    (["simulate-map", "--preset", "weak_coupling", "--angles", "0:x:10"],
     "bad angles '0:x:10'"),
    (["simulate-map", "--preset", "weak_coupling", "--angles", "90:90:10"],
     "angles need stop > start and step > 0"),
    (["spectrum"], "one of --preset or --config is required"),
], ids=["grid_form", "grid_number", "angles_form", "angles_number",
        "angles_stop", "no_model"])
def test_malformed_flag_is_validation_error(tmp_path, capsys, argv, reason):
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, f"error: validation: {reason}")
    assert not out.exists()


def test_spectral_function_writes_the_given_grid(tmp_path):
    from vibropol import load_preset, make_grid
    from vibropol.vibronic import spectral_function
    out = tmp_path / "sf.csv"
    assert _run(["spectral-function", "--preset", "weak_coupling",
                 "--grid-mev", "140:185:451", "--out", str(out),
                 "--quiet"]) == 0
    spec = read_spectrum(out, abscissa="energy_mev")
    grid = spec.grid
    assert (grid.min_energy, grid.max_energy, grid.n_points) == (140, 185, 451)
    ref = spectral_function(load_preset("weak_coupling").modes, 2.0,
                            make_grid(140.0, 185.0, 451))
    assert np.allclose(spec.intensity, ref.intensity, rtol=1e-11, atol=0)


def test_spectral_function_of_a_model_without_modes_needs_a_grid(tmp_path,
                                                                 capsys):
    cfg, out = tmp_path / "bare.cfg", tmp_path / "sf.csv"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 1\n")
    assert _run(["spectral-function", "--config", str(cfg), "--out",
                 str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation: model has no modes; "
                                   "give --grid-mev")
    assert not out.exists()


def test_simulate_map_rejects_non_positive_counts():
    from vibropol import load_preset, make_grid, simulate_polarization_map
    from vibropol.core import ValidationError
    model = load_preset("weak_coupling")
    grid = make_grid(1.83, 1.86, 31)
    for counts in (-5.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            simulate_polarization_map(model, grid, [0.0, 90.0],
                                      counts_per_point=counts)


def test_out_in_missing_directory_fails_before_compute(tmp_path, capsys,
                                                       monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "simulate_polarization_map", no_compute)
    monkeypatch.setattr(cli, "lineshape_density", no_compute)
    missing = tmp_path / "missing" / "x.csv"
    for argv in (["roundtrip"],
                 ["spectrum", "--preset", "weak_coupling"]):
        assert _run(argv + ["--out", str(missing), "--quiet"]) == 4
        _assert_one_line_error(capsys, "error: io:")


# ------------------------------------------- malformed input files exit 2

MAP_HEADER = "energy_ev,angle_deg,intensity\n"


@pytest.mark.parametrize("command,text", [
    ("analyze-map", MAP_HEADER + "1.8,0,5\n1.8,0,abc\n"),      # non-numeric
    ("analyze-map", MAP_HEADER + "1.8,0,5\n1.8,0\n"),          # ragged row
    ("analyze-map", MAP_HEADER + "1.8,0\n1.9,0\n"),            # too few cells
    ("analyze-map", MAP_HEADER),                               # header only
    ("fit-malus", "angle_deg,intensity\n0,1\n10,x\n"),
    ("modes", "energy_mev,partial_hr,partial_dq,grad_magnitude,"
              "grad_direction_deg\n152,0.4,0.21,0.1,inf\n"),
])
def test_malformed_input_file_is_validation_error(tmp_path, capsys, command,
                                                  text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    argv = [command, "--in", str(path), "--quiet"]
    if command == "analyze-map":
        argv += ["--out", str(tmp_path / "report.csv")]
    assert _run(argv) == 2
    _assert_one_line_error(capsys, "error: validation:")


def test_g2_histogram_size_is_checked_before_the_stream(tmp_path, capsys,
                                                        monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("defined the stream before checking bins")

    monkeypatch.setattr(cli, "_draw_stream", no_stream)
    # 2 x 500 ns / 1e-9 ns is about 1e12 bins
    for argv in (["--bin-width", "1e-9"], ["--window", "10"],
                 ["--rep-rate", "0"]):
        assert _run(["g2", *argv, "--out", str(tmp_path / "g2.csv"),
                     "--quiet"]) == 2
        _assert_one_line_error(capsys, "error: validation:")


def test_dense_g2_stream_is_refused_in_its_first_block(tmp_path, capsys):
    # 1.2e8 tags 50 ns apart: over 8 in one 500 ns window, seen in the first
    # block, before the rest of the stream is drawn
    out = tmp_path / "g2.csv"
    tracemalloc.start()
    try:
        code = _run(["g2", "--signal-prob", "1", "--duration", "6", "--out",
                     str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 10e6
    _assert_one_line_error(capsys, "error: validation: stream too dense: "
                                   "over 8 tags in one 500 ns window")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--background-rate", "nan"], ["--background-rate", "inf"],
    ["--signal-fraction", "5e-324"],     # a background rate of inf
    ["--duration", "nan"], ["--duration", "inf"], ["--lifetime", "nan"],
    ["--rep-rate", "nan"], ["--signal-prob", "nan"],
])
def test_non_finite_g2_stream_is_validation_error(tmp_path, capsys, argv):
    # g2 draws its stream as it counts, with no cap on the stream's size:
    # each argument is checked on its own before the first draw
    out = tmp_path / "g2.csv"
    assert _run(["g2", *argv, "--out", str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["g2"],
    ["simulate-map", "--preset", "weak_coupling", "--noise", "poisson"],
], ids=["g2", "simulate_map"])
def test_negative_seed_is_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert _run([*argv, "--seed", "-1", "--out", str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation: seed must be a "
                                   "non-negative integer")
    assert not out.exists()


def test_g2_tags_coarser_than_a_64th_bin_are_refused(tmp_path, capsys):
    # 4e4 s in float64 ps: tags past 2^55 ps lie 8 ps apart, over 1/64 of
    # the 0.5 ns bin; refused before the 8e11 pulses are drawn
    out = tmp_path / "g2.csv"
    start = time.process_time()
    code = _run(["g2", "--signal-prob", "1e-6", "--duration", "4e4",
                 "--out", str(out), "--quiet"])
    assert code == 2 and time.process_time() - start < 1.0
    _assert_one_line_error(capsys, "error: validation: time tags up to "
                                   "4e+16 ps lie 8 ps apart, over 1/64 of "
                                   "the 0.5 ns bin")
    assert not out.exists()
    # 3e4 s: 3e16 ps lies below 2^55, where tags are 4 ps apart
    assert _run(["g2", "--signal-prob", "1e-6", "--duration", "3e4",
                 "--out", str(out), "--quiet"]) == 0


@pytest.mark.parametrize("line", [
    "mode1 = 100, 1, 0.1, abc, 0",
    "equilibrium_dipole = inf",
    "acoustic_grad_direction_deg = north",
    "temperature_k = nan",
])
def test_bad_config_value_is_validation_error(tmp_path, capsys, line):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"zpl_energy_ev = 1.8\nzpl_linewidth_mev = 1.0\n{line}\n")
    out = tmp_path / "s.csv"
    assert _run(["spectrum", "--config", str(cfg), "--grid", "1.7:1.9:201",
                 "--out", str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation:")
    assert not out.exists()


@pytest.mark.parametrize("line,key,preset", [
    ("temprature_k = 6", "temprature_k", []),
    ("temprature_k = 6", "temprature_k", ["--preset", "weak_coupling"]),
    ("mode3 = 170, 1, 0.2, 0.1, 10", "mode3", []),     # no mode2
])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, line, key,
                                              preset):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.8\nzpl_linewidth_mev = 1.0\n"
                   f"mode1 = 160, 1, 0.2, 0.1, 10\n{line}\n")
    out = tmp_path / "s.csv"
    assert _run(["spectrum", *preset, "--config", str(cfg), "--grid",
                 "1.7:1.9:201", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"error: validation: unknown config key '{key}'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "analyze-map", "fit-malus",
                                     "stokes", "modes"])
def test_non_utf8_file_is_validation_error(tmp_path, capsys, command):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff" + b"zpl_energy_ev = 1.8\n")
    argv = [command, "--config" if command == "spectrum" else "--in",
            str(path), "--quiet"]
    if command in ("spectrum", "analyze-map"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert _run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: validation: {path} is not UTF-8 text\n")


SMALL_MAP = ["simulate-map", "--grid", "1.82:1.88:61", "--angles", "0:150:30"]


@pytest.mark.parametrize("argv,line,code", [
    # a 1e300 meV linewidth: the rendered spectrum overflows the spline
    (["spectrum", "--grid", "1.80:1.86:61"], "zpl_linewidth_mev = 1e300", 3),
    # the Boltzmann factor rounds to 1, so no level keeps a population
    # (was an OverflowError)
    (SMALL_MAP, "temperature_k = 1e300", 3),
    (SMALL_MAP, "mode1 = 1e-300, 1, 0.2, 0.1, 0", 3),
    # span estimate overflows (was a raw OverflowError)
    (["spectrum", "--grid", "1.80:1.86:61"], "mode1 = 1e300, 1, 0.2, 0.1, 0",
     3),
    # every line below the weight cutoff
    (SMALL_MAP, "mode1 = 150, 1e300, 0.2, 0.1, 0", 3),
    # the full-band grid is capped like every other grid
    (["spectrum"], "zpl_linewidth_mev = 1e6", 2),
    # two 1e-5 meV modes at 300 K keep about 16,000 lines each: their
    # product would be 2.6e8 elements per array
    (SMALL_MAP, "mode1 = 1e-5, 0.5, 0.2, 0.1, 0\n"
                "mode2 = 1e-5, 0.5, 0.2, 0.1, 0", 3),
])
def test_extreme_config_value_exits_cleanly(tmp_path, capsys, argv, line,
                                            code):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 1.0\n"
                   f"mode1 = 160, 1, 0.2, 0.1, 10\n{line}\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _run([*argv, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == code
    _assert_one_line_error(capsys, "error: numerical:" if code == 3
                           else "error: validation:")
    assert not out.exists()


def test_soft_mode_past_the_former_level_limit_maps(tmp_path):
    # a 0.5 meV mode at 300 K needed about 1900 thermal levels and exited
    # 3 (limit 170); its closed-form line weights have no level limit
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 1.0\n"
                   "mode1 = 0.5, 0.5, 0.2, 0.1, 0\n")
    out = tmp_path / "out.csv"
    assert _run([*SMALL_MAP, "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    pmap = read_map(out)
    assert pmap.intensity.shape == (61, 6) and pmap.intensity.max() > 0


def test_overflowing_span_is_named_in_the_lattice_error(tmp_path, capsys):
    # at 1e300 K the band's span, not the step, overflows the 2^22-point
    # lattice: only a linewidth wider than the photon energy would fit it
    out = tmp_path / "out.csv"
    assert _run(["simulate-map", "--preset", "strong_coupling", "--temp",
                 "1e300", "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: internal grid would need")
    assert "1.01e+152 meV span needs a linewidth beyond the ZPL energy" in err
    assert "widen the linewidth" not in err
    assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_channel_render_size_is_checked_before_it_is_allocated(
        tmp_path, capsys, monkeypatch):
    # the channel lattice of a 0.01 meV grid on ZPL +- 30 meV needs about
    # 28,500 points; with room for 20,000 it exits 3, naming a spacing
    # that fits, before any stick is spread
    monkeypatch.setattr(dipole, "_CHANNEL_POINTS", 20000)
    spread = []
    stick_signal = dipole._stick_signal
    monkeypatch.setattr(dipole, "_stick_signal",
                        lambda *a: spread.append(1) or stick_signal(*a))
    out = tmp_path / "out.csv"
    argv = ["simulate-map", "--preset", "strong_coupling", "--angles",
            "0:150:30", "--out", str(out), "--quiet", "--grid"]
    assert _run([*argv, "1.818:1.878:6001"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: internal grid would need")
    assert "(limit 20000)" in err and not spread and not out.exists()
    # the message rounds the spacing to 3 digits
    fits = float(re.search(r"spacing allowed is (\S+) eV", err)[1]) * 1.01
    assert _run([*argv, f"1.818:1.878:{int(0.06 / fits) + 1}"]) == 0
    assert spread and out.exists()


def test_oversized_map_is_refused_before_the_curve(tmp_path, capsys,
                                                  monkeypatch):
    # 601 energies x 6,980 angles is just over 2^22 cells: it exits 2 with
    # one line before the forward curve is computed
    calls = []
    monkeypatch.setattr(polarimetry, "orientation_vs_energy",
                        lambda *a: calls.append(1))
    out = tmp_path / "map.csv"
    assert _run(["simulate-map", "--preset", "strong_coupling", "--grid",
                 "1.818:1.878:601", "--angles", "0:6979:1", "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: validation: a map of 601 energies x 6980 angles "
                   "exceeds 4194304 cells\n")
    assert not calls and not out.exists()


def test_subnormal_linewidth_is_a_numerical_error(tmp_path, capsys):
    # linewidth/8 underflowed to 0 and the lattice step divided by it
    # (was ZeroDivisionError)
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 5e-324\n"
                   "mode1 = 160, 1, 0.2, 0.1, 10\n")
    out = tmp_path / "out.csv"
    assert _run(["spectrum", "--grid", "1.80:1.86:61", "--config", str(cfg),
                 "--out", str(out), "--quiet"]) == 3
    _assert_one_line_error(capsys, "error: numerical:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["g2", "--background-rate", "1e300"],  # was "lam value too large"
    ["g2", "--signal-fraction", "1e-300"],
    ["g2", "--duration", "1e300"],         # was an endless pulse loop
    # 2e6 background tags in 1e-300 s: 1e12 pairs (was a 7 TiB request)
    ["g2", "--signal-fraction", "1e-300", "--duration", "1e-300"],
    # 5e-324 is the smallest subnormal: bin counts and grid sizes
    # overflow to inf, and b/8 underflows to 0 (was ZeroDivisionError)
    ["g2", "--bin-width", "5e-324"],
    ["spectral-function", "--preset", "weak_coupling", "--broadening",
     "5e-324"],
])
def test_extreme_flag_value_is_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out), "--quiet"]) == 2
    _assert_one_line_error(capsys, "error: validation:")
    assert not out.exists()


def test_underflowing_temperature_is_zero_kelvin(tmp_path):
    # k_B T underflows to 0 at 5e-324 K (was ZeroDivisionError)
    spectra = []
    for temp in ("0", "5e-324"):
        out = tmp_path / f"s{temp}.csv"
        with warnings.catch_warnings():      # the wing's d / kT at kT = 0
            warnings.simplefilter("ignore", RuntimeWarning)
            assert _run(["spectrum", "--preset", "weak_coupling", "--grid",
                         "1.80:1.86:61", "--temp", temp, "--out", str(out),
                         "--quiet"]) == 0
        spectra.append(read_spectrum(out).intensity)
    # T > 0 widens the renderer's internal anti-Stokes span, which moves
    # the interpolated density by ~2e-5 of the peak
    zero, tiny = spectra
    assert np.allclose(tiny, zero, rtol=0, atol=1e-4 * zero.max())


def test_underflowing_temperature_writes_the_zero_kelvin_csv(tmp_path):
    # every temperature branch goes through one k_B T that underflows to 0,
    # so only the header line naming the temperature differs
    lines = []
    for temp in ("0", "5e-324"):
        out = tmp_path / f"s{temp}.csv"
        assert _run(["spectrum", "--preset", "strong_coupling", "--grid",
                     "1.80:1.86:61", "--temp", temp, "--out", str(out),
                     "--quiet"]) == 0
        lines.append([line for line in out.read_bytes().splitlines(True)
                      if not line.startswith(b"# temperature_k =")])
    zero, tiny = lines
    assert len(zero) > 61 and tiny == zero


def test_huge_acoustic_gradient_is_numerical_error(tmp_path, capsys):
    # squaring the jitter sigma raised an OverflowError; with that fixed,
    # the wing channel axes overflow to NaN, which must end as a numerical
    # error instead of reaching the map
    cfg = tmp_path / "model.cfg"
    cfg.write_text("acoustic_gradient = 1e300\n")
    out = tmp_path / "map.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _run([*SMALL_MAP, "--preset", "strong_coupling", "--config",
                     str(cfg), "--out", str(out), "--quiet"]) == 3
    _assert_one_line_error(capsys, "error: numerical:")
    assert not out.exists()


# ---------------------------------------- property-based input-file fuzzer

FUZZ_HEADERS = {
    "analyze-map": "energy_ev,angle_deg,intensity",
    "fit-malus": "angle_deg,intensity",
    "stokes": "qwp_angle_deg,intensity",
    "modes": ("energy_mev,partial_hr,partial_dq,grad_magnitude,"
              "grad_direction_deg"),
}
_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", " ", "abc", "1e", "--1", "0x10", "1_0", "+", ".",
                     "1;2", "\t7 "]))
_LINE = st.one_of(
    st.lists(_CELL, max_size=6).map(",".join),
    st.sampled_from(["", "   ", "# note", "  # k = v", "#g2_zero=1 err=2"]))
_HEADER = st.one_of(
    st.sampled_from(sorted(FUZZ_HEADERS.values())),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20))


@st.composite
def _map_text(draw):
    """A complete energy x angle grid, so the analysis itself runs too."""
    n_e = draw(st.integers(2, 8))
    angles = draw(st.lists(st.sampled_from(np.arange(0.0, 360.0, 10.0)),
                           min_size=1, max_size=8, unique=True))
    value = st.one_of(st.floats(0.0, 1e6), st.sampled_from(
        [0.0, -0.0, -1.0, float("nan"), float("inf"), 1e300]))
    rows = [f"{1.8 + 0.001 * i!r},{a!r},{draw(value)!r}"
            for i in range(n_e) for a in angles]
    if draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    return FUZZ_HEADERS["analyze-map"] + "\n" + "\n".join(rows) + "\n"


@st.composite
def _fuzz_case(draw):
    command = draw(st.sampled_from(sorted(FUZZ_HEADERS)))
    if command == "analyze-map" and draw(st.booleans()):
        text = draw(_map_text())
    elif draw(st.integers(0, 9)) == 0:
        text = ""
    else:
        header = draw(st.one_of(st.just(FUZZ_HEADERS[command]), _HEADER))
        text = "\n".join([header] + draw(st.lists(_LINE, max_size=12)))
    return command, text


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_case(), mode=st.sampled_from(["analyzer", "rqwp"]))
def test_fuzzed_input_file_exits_cleanly(tmp_path, case, mode):
    command, text = case
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--in", str(path), "--quiet"]
    if command == "analyze-map":
        argv += ["--mode", mode, "--bin-width", "1",
                 "--out", str(tmp_path / "report.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = _run(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# ------------------------------------- property-based flag and config fuzzer

_SPECIAL = ["nan", "inf", "-inf", "0", "-0", "-1", "-1e300", "5e-324",
            "1e-300", "1e300"]
# float flags of each command, drawn from _SPECIAL or a few ordinary
# values; the fixed arguments keep every run small (61-point grids, six
# angles), and g2 always gets a --duration of at most 0.05 s or one that
# is rejected at once
FUZZ_FLAGS = {
    "spectrum": (["--preset", "weak_coupling", "--grid", "1.80:1.86:61"],
                 {"--temp": ["6", "300"], "--strain-bias": ["0.5"]}),
    "spectral-function": (["--preset", "weak_coupling"],
                          {"--broadening": ["0.5", "2"], "--temp": ["300"],
                           "--strain-bias": ["-1"]}),
    "simulate-map": (["--preset", "strong_coupling", "--grid",
                      "1.82:1.88:61", "--angles", "0:150:30"],
                     {"--temp": ["6", "300"], "--strain-bias": ["1"],
                      "--counts": ["1e4"]}),
    "analyze-map": ([], {"--bin-width": ["1", "4"]}),
    "g2": ([], {"--signal-fraction": ["0.9"], "--background-rate": ["1e4"],
                "--signal-prob": ["0.1"], "--rep-rate": ["20"],
                "--lifetime": ["2"], "--bin-width": ["0.5"],
                "--window": ["500"]}),
}
_DURATIONS = ["nan", "-inf", "0", "-0", "-1", "-1e300", "1e-300", "0.01",
              "0.05"]
_CONFIG_KEYS = ["zpl_energy_ev", "equilibrium_angle_deg", "equilibrium_dipole",
                "zpl_linewidth_mev", "zpl_profile", "acoustic_coupling",
                "acoustic_cutoff_mev", "temperature_k", "strain_bias",
                "acoustic_gradient", "acoustic_grad_direction_deg",
                "orientation_jitter", "mode1", "mode2", "mode5", "unknown"]
_CONFIG_VALUE = st.one_of(
    st.sampled_from(_SPECIAL + ["", "abc", "gaussian", "lorentzian"]),
    st.lists(st.sampled_from(_SPECIAL + ["150", "1", "0.2", "abc", ""]),
             max_size=6).map(", ".join))
_CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUE),
    st.sampled_from(["no equals sign", "= 1", "a = b = c", "# note", "",
                     "mode1 =", "  mode1=160,1,0.2,0.1,10  # ok"]))


@st.composite
def _flag_case(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    fixed, flags = FUZZ_FLAGS[command]
    argv = [command, *fixed]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += [flag, draw(st.sampled_from(_SPECIAL + flags[flag]))]
    if command == "g2":
        argv += ["--duration", draw(st.sampled_from(_DURATIONS))]
    if command == "simulate-map":
        argv += ["--noise", draw(st.sampled_from(["none", "poisson"]))]
    return argv, None


@st.composite
def _config_case(draw):
    command = draw(st.sampled_from(["spectrum", "simulate-map"]))
    fixed = FUZZ_FLAGS[command][0][2:]             # all but the preset
    lines = draw(st.lists(_CONFIG_LINE, min_size=1, max_size=4))
    return [command, *fixed], "\n".join(lines) + "\n"


def _fuzz_map_text():
    angles = np.arange(0.0, 180.0, 30.0)
    inten = 100.0 + 50.0 * np.cos(np.deg2rad(2.0 * angles))
    rows = [f"{e:.12g},{a:.12g},{i:.12g}" for e in np.linspace(1.80, 1.86, 61)
            for a, i in zip(angles, inten)]
    return "energy_ev,angle_deg,intensity\n" + "\n".join(rows) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(_flag_case(), _config_case()),
       preset=st.booleans())
def test_fuzzed_flags_and_config_exit_cleanly(tmp_path, case, preset):
    argv, config = case
    if config is not None:
        # the drawn lines follow, and override, a small complete model
        path = tmp_path / "model.cfg"
        path.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 1.0\n"
                        "mode1 = 160, 1, 0.2, 0.1, 10\n" + config,
                        encoding="utf-8")
        argv += ["--config", str(path)]
        if preset:
            argv += ["--preset", "weak_coupling"]
    if argv[0] == "analyze-map":
        path = tmp_path / "map.csv"
        path.write_text(_fuzz_map_text(), encoding="utf-8")
        argv += ["--in", str(path)]
    argv += ["--out", str(tmp_path / "out.csv"), "--quiet"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = _run(argv)
        except SystemExit as exc:          # argparse rejects the flag
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("profile", ["gaussian", "lorentzian"])
def test_subnormal_linewidth_prints_only_the_error_line(tmp_path, profile):
    # the lattice step underflowed to 0 and was divided by, printing
    # RuntimeWarnings before the error line (pytest captures warnings, so
    # this runs the CLI in its own interpreter)
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 5e-324\n"
                   f"zpl_profile = {profile}\nmode1 = 160, 1, 0.2, 0.1, 10\n")
    assert _cli_in_own_interpreter([
        "spectrum", "--grid", "1.80:1.86:61", "--config", str(cfg), "--out",
        str(tmp_path / "s.csv"), "--quiet"]) == (
            3, "error: numerical: renderer window is not finite\n")


def _cli_in_own_interpreter(argv):
    """(exit code, stderr) of the CLI in a fresh interpreter, where a
    RuntimeWarning prints as it would for a user."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-m", "vibropol.cli", *argv],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    return run.returncode, run.stderr


def test_overflowing_counts_scale_prints_only_the_error_line(tmp_path):
    # counts / peak overflowed with a RuntimeWarning, and the map was then
    # refused as "intensities must be finite and >= 0"
    code, err = _cli_in_own_interpreter([
        "simulate-map", "--preset", "weak_coupling", "--counts", "1e308",
        "--out", str(tmp_path / "m.csv"), "--quiet"])
    assert code == 2
    assert re.fullmatch(r"error: validation: counts_per_point 1e\+308 is too "
                        r"large: its scale to the map peak \S+ is not "
                        r"finite\n", err)


@pytest.mark.parametrize("argv,lines,code,err", [
    # the Gaussian reach ratio overflowed (dipole._line_reach)
    (SMALL_MAP, "acoustic_coupling = 1\nacoustic_cutoff_mev = 1e-300", 0, ""),
    # the full band's bounds are infinite (vibronic.full_band_grid)
    (["spectrum"], "acoustic_coupling = 1\nacoustic_cutoff_mev = 1e300", 2,
     "error: validation: grid bounds must be finite\n"),
    # the jitter sigma squared overflowed (dipole._jitter_dolp)
    (SMALL_MAP, "orientation_jitter = 1e300\nacoustic_gradient = 1\n"
                "acoustic_coupling = 1\nstrain_bias = 1", 0, ""),
    # the wing channel axes overflow (dipole._axis_cos_sin)
    (SMALL_MAP, "acoustic_coupling = 2\nacoustic_gradient = 1e300\n"
                "strain_bias = 1", 3,
     "error: numerical: channel Stokes sums overflow\n"),
])
def test_extreme_wing_config_prints_only_the_error_line(tmp_path, argv, lines,
                                                        code, err):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 1\n"
                   "zpl_profile = gaussian\nmode1 = 160, 1.0, 0.4, 0.3, 45\n"
                   f"{lines}\n")
    assert _cli_in_own_interpreter([
        *argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
        "--quiet"]) == (code, err)


def test_extreme_mode_energy_prints_only_the_error_line(tmp_path):
    # the span's second cumulant overflowed (vibronic._span_estimate) and
    # printed a RuntimeWarning before the error line
    cfg = tmp_path / "model.cfg"
    cfg.write_text("zpl_energy_ev = 1.848\nzpl_linewidth_mev = 1\n"
                   "mode1 = 1e300, 1, 0.2, 0.1, 0\n")
    assert _cli_in_own_interpreter([
        "spectrum", "--config", str(cfg), "--grid", "1.80:1.86:61", "--out",
        str(tmp_path / "out.csv"), "--quiet"]) == (
        3, "error: numerical: renderer window is not finite\n")
