"""CSV readers/writers for every file format the toolkit emits.

All files are UTF-8 with LF line endings and '.' decimal separators.  A
leading block of '#' lines records the resolved configuration of the run
that produced the file.  Every format goes through one writer,
``_write_table``, and one reader, ``_read_rows``.  Files are byte-identical
to printing each cell with ``FMT % x`` (at least 9 significant digits) row
by row; where a column's values mostly repeat, each distinct 64-bit pattern
is formatted once, so ``-0.0`` still prints ``-0``.  The reader parses all
data rows with one ``np.loadtxt`` call.
"""

from __future__ import annotations

import re
from dataclasses import astuple

import numpy as np

from .core import (EnergyGrid, PhononMode, PolarizationMap, Spectrum,
                   OrientationCurve, ValidationError, make_grid)

FMT = "%.12g"

# a newline starting a line that may be blank or a '#' comment
_MAYBE_SKIPPED = re.compile(r"\n(?=[\t-\r #])")


def _cells(column):
    """Row-format field and cells of a column: strings as they are, floats
    with FMT in the pass over the rows or, where at least half the cells
    repeat a value, from strings made once per distinct bit pattern."""
    column = np.asarray(column)
    if column.dtype.kind == "U":
        return "%s", column
    column = column.astype(np.float64)
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if 2 * distinct.size > column.size:
        return FMT, column
    strings = [FMT % v for v in distinct.view(np.float64).tolist()]
    return "%s", np.array(strings, dtype=object)[inverse]


def _write_table(path, header: str, columns, config: dict | None,
                 footer: str = "") -> None:
    """'# key = value' lines of the config, the header, one row per index
    of the equal-length ``columns`` and the footer, in one write."""
    fields, cells = zip(*map(_cells, columns))
    table = np.column_stack([c.astype(object) for c in cells])
    rows = (",".join(fields) + "\n") * table.shape[0]
    head = "".join(f"# {k} = {config[k]}\n" for k in sorted(config or {}))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + header + "\n" + rows % tuple(table.ravel().tolist())
                 + footer)


def _read_rows(path, expected_header: str):
    """(rows, footer): float64 data rows, one column per header field, and
    the 'key = value' pairs of the '#' lines, which may appear anywhere."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = "\n" + fh.read() + "\n"
    except UnicodeDecodeError:
        raise ValidationError(f"{path} is not UTF-8 text") from None
    footer, kept, pos = {}, [], 0
    for m in _MAYBE_SKIPPED.finditer(text):
        end = text.find("\n", m.end())
        line = text[m.end():end].strip()
        if line and not line.startswith("#"):
            continue                         # an indented data line
        kept.append(text[pos:m.start()])
        pos = end
        key, eq, value = line.lstrip("# ").strip().partition("=")
        if eq:
            footer[key.strip()] = value.strip()
    lines = ("".join(kept) + text[pos:]).rstrip("\n").split("\n")[1:]
    if not lines:
        raise ValidationError(f"no data found in {path}")
    if lines[0].strip() != expected_header:
        raise ValidationError(f"unexpected header {lines[0].strip()!r}; "
                              f"expected {expected_header!r}")
    n_cols = expected_header.count(",") + 1
    try:
        rows = (np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
                if len(lines) > 1 else np.empty((0, n_cols)))
    except ValueError as exc:                # numpy adds a hint after ';'
        raise ValidationError(f"{path}: {str(exc).split(';')[0]}") from None
    if rows.shape[1] != n_cols:
        raise ValidationError(f"{path}: rows need {n_cols} cells")
    return rows, footer


def _grid_from_energies(energies: np.ndarray) -> EnergyGrid:
    if energies.size < 2:
        raise ValidationError("need at least two grid points")
    spac = np.diff(energies)
    # tolerate last-digit jitter from the %.12g formatting of the writers
    if np.any(spac <= 0) or np.ptp(spac) > 1e-6 * abs(spac[0]) + 1e-12:
        raise ValidationError("energy column is not a uniform increasing grid")
    return make_grid(energies[0], energies[-1], energies.size)


def write_spectrum(path, spectrum: Spectrum, config: dict | None = None,
                   abscissa: str = "energy_ev") -> None:
    _write_table(path, f"{abscissa},intensity",
                 (spectrum.grid.points, spectrum.intensity), config)


def read_spectrum(path, abscissa: str = "energy_ev") -> Spectrum:
    data, _ = _read_rows(path, f"{abscissa},intensity")
    return Spectrum(_grid_from_energies(data[:, 0]), data[:, 1])


def write_map(path, pmap: PolarizationMap, config: dict | None = None) -> None:
    _write_table(path, "energy_ev,angle_deg,intensity", (
        np.repeat(pmap.grid.points, pmap.angles.size),
        np.tile(pmap.angles, pmap.grid.n_points), pmap.intensity.ravel()),
        config)


def read_map(path) -> PolarizationMap:
    """The map of a file with one row per (energy, angle) cell, in any
    order; a cell that is missing or repeated is refused."""
    data, _ = _read_rows(path, "energy_ev,angle_deg,intensity")
    energies, row = np.unique(data[:, 0], return_inverse=True)
    angles, col = np.unique(data[:, 1], return_inverse=True)
    cell = row * angles.size + col
    inten = np.empty((energies.size, angles.size))
    if np.any(np.bincount(cell, minlength=inten.size) != 1):
        raise ValidationError("map file is not a complete energy x angle "
                              "grid: a cell is missing or repeated")
    inten.flat[cell] = data[:, 2]
    return PolarizationMap(_grid_from_energies(energies), angles, inten)


MODE_HEADER = "energy_mev,partial_hr,partial_dq,grad_magnitude,grad_direction_deg"


def write_mode_table(path, modes, config: dict | None = None) -> None:
    _write_table(path, MODE_HEADER, np.array(
        [astuple(m) for m in modes], dtype=float).reshape(-1, 5).T, config)


def read_mode_table(path) -> tuple:
    data, _ = _read_rows(path, MODE_HEADER)
    return tuple(PhononMode(*row) for row in data.tolist())


REPORT_HEADER = ("energy_ev,theta0_deg,dolp,psi_deg,chi_deg,dop,valid,"
                 "rms_residual")


def write_analysis_report(path, curve: OrientationCurve,
                          config: dict | None = None) -> None:
    chi = np.zeros(curve.grid.n_points) if curve.chi is None else curve.chi
    rms = (np.full(curve.grid.n_points, np.nan)
           if curve.rms_residual is None else curve.rms_residual)
    _write_table(path, REPORT_HEADER, (
        curve.grid.points, curve.psi, curve.dolp, curve.psi, chi, curve.dolp,
        np.where(curve.valid, "1", "0"), rms), config)


def write_rqwp_trace(path, qwp_angles, intensity,
                     config: dict | None = None) -> None:
    _write_table(path, "qwp_angle_deg,intensity", (qwp_angles, intensity),
                 config)


def read_angle_trace(path, header: str):
    """(angles, intensities) of a two-column trace with the given header."""
    data, _ = _read_rows(path, header)
    return data[:, 0], data[:, 1]


def read_rqwp_trace(path):
    return read_angle_trace(path, "qwp_angle_deg,intensity")


def write_g2_histogram(path, hist, config: dict | None = None) -> None:
    counts = np.asarray(hist.coincidences).astype(np.int64).astype(str)
    _write_table(path, "tau_ns,coincidences", (hist.bin_centers, counts),
                 config, footer=f"# g2_zero={FMT % hist.g2_zero} "
                                f"err={FMT % hist.g2_zero_err}\n")
