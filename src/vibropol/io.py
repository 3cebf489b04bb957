"""CSV readers/writers for every file format the toolkit emits.

All files are UTF-8 with LF line endings and '.' decimal separators.  A
leading block of '#' comment lines records the resolved configuration of
the run that produced the file; readers skip it.  Numeric output carries
at least 9 significant digits.
"""

from __future__ import annotations

import numpy as np

from .core import (EnergyGrid, PhononMode, PolarizationMap, Spectrum,
                   OrientationCurve, ValidationError, make_grid)

FMT = "%.12g"


def _header_block(config: dict | None) -> str:
    if not config:
        return ""
    lines = [f"# {k} = {config[k]}" for k in sorted(config)]
    return "\n".join(lines) + "\n"


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_rows(path, expected_header: str):
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
                    raise ValidationError(
                        f"unexpected header {header!r}; expected "
                        f"{expected_header!r}")
                continue
            rows.append(line.split(","))
    if header is None:
        raise ValidationError(f"no data found in {path}")
    return rows, footer


def _grid_from_energies(energies: np.ndarray) -> EnergyGrid:
    energies = np.asarray(energies, dtype=float)
    if energies.size < 2:
        raise ValidationError("need at least two grid points")
    spac = np.diff(energies)
    # tolerate last-digit jitter from the %.12g formatting of the writers
    if np.any(spac <= 0) or np.ptp(spac) > 1e-6 * abs(spac[0]) + 1e-12:
        raise ValidationError("energy column is not a uniform increasing grid")
    return make_grid(energies[0], energies[-1], energies.size)


# ---------------------------------------------------------------- spectra

def write_spectrum(path, spectrum: Spectrum, config: dict | None = None,
                   abscissa: str = "energy_ev") -> None:
    lines = [_header_block(config) + f"{abscissa},intensity"]
    for e, i in zip(spectrum.grid.points, spectrum.intensity):
        lines.append(f"{FMT % e},{FMT % i}")
    _write(path, "\n".join(lines) + "\n")


def read_spectrum(path, abscissa: str = "energy_ev") -> Spectrum:
    rows, _ = _read_rows(path, f"{abscissa},intensity")
    data = np.array(rows, dtype=float)
    return Spectrum(_grid_from_energies(data[:, 0]), data[:, 1])


# ------------------------------------------------------------------- maps

def write_map(path, pmap: PolarizationMap, config: dict | None = None) -> None:
    lines = [_header_block(config) + "energy_ev,angle_deg,intensity"]
    for i, e in enumerate(pmap.grid.points):
        for j, a in enumerate(pmap.angles):
            lines.append(f"{FMT % e},{FMT % a},{FMT % pmap.intensity[i, j]}")
    _write(path, "\n".join(lines) + "\n")


def read_map(path) -> PolarizationMap:
    rows, _ = _read_rows(path, "energy_ev,angle_deg,intensity")
    data = np.array(rows, dtype=float)
    energies = np.unique(data[:, 0])
    angles = np.unique(data[:, 1])
    if energies.size * angles.size != data.shape[0]:
        raise ValidationError("map file is not a complete energy x angle grid")
    grid = _grid_from_energies(energies)
    inten = data[:, 2].reshape(energies.size, angles.size)
    # rows are written row-major over energy then angle
    order = np.argsort(data[: angles.size, 1])
    return PolarizationMap(grid, angles, inten[:, order])


# ----------------------------------------------------------- mode tables

MODE_HEADER = "energy_mev,partial_hr,partial_dq,grad_magnitude,grad_direction_deg"


def write_mode_table(path, modes, config: dict | None = None) -> None:
    lines = [_header_block(config) + MODE_HEADER]
    for m in modes:
        lines.append(",".join(FMT % v for v in (
            m.energy_mev, m.partial_hr, m.partial_dq,
            m.grad_magnitude, m.grad_direction)))
    _write(path, "\n".join(lines) + "\n")


def read_mode_table(path) -> tuple:
    rows, _ = _read_rows(path, MODE_HEADER)
    return tuple(PhononMode(*(float(v) for v in row)) for row in rows)


# ---------------------------------------------------- orientation curves

def write_orientation_curve(path, curve: OrientationCurve,
                            config: dict | None = None) -> None:
    lines = [_header_block(config) + "energy_ev,psi_deg,dolp,weight,valid"]
    for k, e in enumerate(curve.grid.points):
        lines.append(",".join((
            FMT % e, FMT % curve.psi[k], FMT % curve.dolp[k],
            FMT % curve.weight[k], "1" if curve.valid[k] else "0")))
    _write(path, "\n".join(lines) + "\n")


def read_orientation_curve(path) -> OrientationCurve:
    rows, _ = _read_rows(path, "energy_ev,psi_deg,dolp,weight,valid")
    data = np.array(rows, dtype=float)
    return OrientationCurve(
        _grid_from_energies(data[:, 0]), data[:, 1], data[:, 2], data[:, 3],
        data[:, 4].astype(bool))


REPORT_HEADER = ("energy_ev,theta0_deg,dolp,psi_deg,chi_deg,dop,valid,"
                 "rms_residual")


def write_analysis_report(path, curve: OrientationCurve,
                          config: dict | None = None) -> None:
    chi = curve.chi if curve.chi is not None else np.zeros(curve.grid.n_points)
    rms = (curve.rms_residual if curve.rms_residual is not None
           else np.full(curve.grid.n_points, np.nan))
    lines = [_header_block(config) + REPORT_HEADER]
    for k, e in enumerate(curve.grid.points):
        lines.append(",".join((
            FMT % e, FMT % curve.psi[k], FMT % curve.dolp[k],
            FMT % curve.psi[k], FMT % chi[k], FMT % curve.dolp[k],
            "1" if curve.valid[k] else "0", FMT % rms[k])))
    _write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------- RQWP traces

def write_rqwp_trace(path, qwp_angles, intensity,
                     config: dict | None = None) -> None:
    lines = [_header_block(config) + "qwp_angle_deg,intensity"]
    for a, i in zip(qwp_angles, intensity):
        lines.append(f"{FMT % a},{FMT % i}")
    _write(path, "\n".join(lines) + "\n")


def read_angle_trace(path, header: str):
    """(angles, intensities) of a two-column trace with the given header."""
    rows, _ = _read_rows(path, header)
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]


def read_rqwp_trace(path):
    return read_angle_trace(path, "qwp_angle_deg,intensity")


# ------------------------------------------------------ g2 histograms

def write_g2_histogram(path, hist, config: dict | None = None) -> None:
    lines = [_header_block(config) + "tau_ns,coincidences"]
    for t, c in zip(hist.bin_centers, hist.coincidences):
        lines.append(f"{FMT % t},{int(c)}")
    lines.append(f"# g2_zero={FMT % hist.g2_zero} err={FMT % hist.g2_zero_err}")
    _write(path, "\n".join(lines) + "\n")
