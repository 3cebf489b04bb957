"""Command-line front end: reproducible simulation and analysis runs.

Every command resolves its parameters (preset file, then --config file,
then explicit flags), validates them before any computation, writes CSV
with a '#' header block recording the resolved configuration, and is
byte-identical across re-runs with the same flags.  Exit codes: 0
success, 2 validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .config import (PRESET_NAMES, load_preset, model_from_config,
                     model_to_config, read_config)
from .core import (MAX_GRID_POINTS, EmitterModel, EnergyGrid, NumericalError,
                   Spectrum, ValidationError, make_grid)
from .io import (read_angle_trace, read_map, read_mode_table, read_rqwp_trace,
                 write_analysis_report, write_g2_histogram, write_map,
                 write_mode_table, write_spectrum)
from .photostats import (_draw_stream, background_rate_for_fraction,
                         g2_histogram, histogram_bins)
from .polarimetry import (analyze_map, default_map_angles, default_map_grid,
                          extract_stokes_rqwp, fit_malus, roundtrip_checks,
                          simulate_polarization_map, stokes_to_ellipse)
from .vibronic import (full_band_grid, lineshape_density, spectral_function,
                       total_dq)


def _parse_grid(text: str) -> EnergyGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be min:max:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from None
    return make_grid(lo, hi, n)


def _parse_angles(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"angles must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad angles {text!r}: {exc}") from None
    if not (step > 0 and stop > start):
        raise ValidationError("angles need stop > start and step > 0")
    if not (stop - start) / step < MAX_GRID_POINTS:
        raise ValidationError(f"angles would exceed {MAX_GRID_POINTS} points")
    return np.arange(start, stop + 0.5 * step, step)


def _resolve_model(args) -> EmitterModel:
    flags = {"temperature_k": args.temp, "strain_bias": args.strain_bias}
    if args.config:
        cfg = read_config(args.config)
        if args.preset:
            cfg = {**model_to_config(load_preset(args.preset)), **cfg}
        return model_from_config(cfg, **flags)
    if args.preset:
        return load_preset(args.preset, **flags)
    raise ValidationError("one of --preset or --config is required")


def _model_flags(p):
    p.add_argument("--preset", choices=PRESET_NAMES,
                   help="shipped emitter preset")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--temp", type=float, help="temperature in K")
    p.add_argument("--strain-bias", type=float, dest="strain_bias")


def _run_header(args, model: EmitterModel | None = None,
                **extra) -> dict:
    cfg = model_to_config(model) if model is not None else {}
    cfg["command"] = args.command
    for k, v in extra.items():
        cfg[k] = str(v)
    return cfg


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _report(args, lines) -> None:
    """Write a plain-text report to --out, if given, and print it."""
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    _emit(args, text)


# ----------------------------------------------------------- subcommands

def cmd_spectrum(args) -> int:
    model = _resolve_model(args)
    grid = _parse_grid(args.grid) if args.grid else full_band_grid(model)
    dens = lineshape_density(model, grid)
    area = np.trapezoid(dens, grid.points * 1e3)
    if area <= 0:
        raise NumericalError("no spectral weight on the requested grid")
    spec = Spectrum(grid, dens / area)
    cfg = _run_header(args, model, normalization="grid",
                      grid=f"{grid.min_energy:.12g}:{grid.max_energy:.12g}:"
                           f"{grid.n_points}")
    write_spectrum(args.out, spec, cfg)
    _emit(args, f"wrote {args.out} ({grid.n_points} points)")
    return 0


def cmd_spectral_function(args) -> int:
    model = _resolve_model(args)
    b = args.broadening
    if not b > 0:
        raise ValidationError("broadening must be > 0")
    if args.grid_mev:
        grid = _parse_grid(args.grid_mev)
    else:
        if not model.modes:
            raise ValidationError("model has no modes; give --grid-mev")
        lo = min(m.energy_mev for m in model.modes) - 8.0 * b
        hi = max(m.energy_mev for m in model.modes) + 8.0 * b
        grid = make_grid(lo, hi, np.ceil((hi - lo) * 8.0 / b) + 1)
    spec = spectral_function(model.modes, b, grid)
    cfg = _run_header(args, model, broadening_mev=b)
    write_spectrum(args.out, spec, cfg, abscissa="energy_mev")
    _emit(args, f"wrote {args.out} (total HR {model.total_hr:.12g})")
    return 0


def cmd_simulate_map(args) -> int:
    model = _resolve_model(args)
    grid = _parse_grid(args.grid) if args.grid else default_map_grid(model)
    angles = (_parse_angles(args.angles) if args.angles
              else default_map_angles(args.mode))
    pmap = simulate_polarization_map(model, grid, angles, mode=args.mode,
                                     counts_per_point=args.counts,
                                     noise=args.noise, seed=args.seed)
    cfg = _run_header(args, model, mode=args.mode, noise=args.noise,
                      seed=args.seed, counts_per_point=args.counts)
    write_map(args.out, pmap, cfg)
    _emit(args, f"wrote {args.out} ({grid.n_points} x {angles.size})")
    return 0


def cmd_analyze_map(args) -> int:
    pmap = read_map(args.infile)
    curve = analyze_map(pmap, mode=args.mode, bin_width_mev=args.bin_width)
    cfg = _run_header(args, None, mode=args.mode, bin_width_mev=args.bin_width,
                      infile=args.infile)
    write_analysis_report(args.out, curve, cfg)
    _emit(args, f"wrote {args.out} ({int(curve.valid.sum())} valid bins, "
                f"sweep {curve.sweep():.3f} deg)")
    return 0


def cmd_fit_malus(args) -> int:
    angles, inten = read_angle_trace(args.infile, "angle_deg,intensity")
    fit = fit_malus(angles, inten)
    _report(args, [f"theta0_deg = {fit.theta0:.12g}",
                   f"i_max = {fit.i_max:.12g}",
                   f"i_min = {fit.i_min:.12g}",
                   f"dolp = {fit.dolp:.12g}",
                   f"rms_residual = {fit.rms_residual:.12g}",
                   f"unphysical_floor = {int(fit.unphysical_floor)}"])
    return 0


def cmd_stokes(args) -> int:
    angles, inten = read_rqwp_trace(args.infile)
    s = extract_stokes_rqwp(angles, inten)
    ell = stokes_to_ellipse(s)
    _report(args, [f"s0 = {s.s0:.12g}", f"s1 = {s.s1:.12g}",
                   f"s2 = {s.s2:.12g}", f"s3 = {s.s3:.12g}",
                   f"dop = {ell.dop:.12g}", f"psi_deg = {ell.psi:.12g}",
                   f"chi_deg = {ell.chi:.12g}",
                   f"physicality_deficit = {s.physicality_deficit:.12g}"])
    return 0


def cmd_g2(args) -> int:
    if args.signal_fraction is not None:
        background = background_rate_for_fraction(
            args.signal_fraction, args.signal_prob, args.rep_rate)
    else:
        background = args.background_rate
    if not args.rep_rate > 0:
        raise ValidationError("rep rate must be > 0")
    period = 1e3 / args.rep_rate
    histogram_bins(args.bin_width, args.window, period)
    # the count draws the stream a block at a time; it is never held whole
    stream = _draw_stream(args.signal_prob, background, args.rep_rate,
                          args.lifetime, args.duration, seed=args.seed)
    hist = g2_histogram(stream, args.bin_width, args.window, period)
    cfg = _run_header(args, None, signal_prob=args.signal_prob,
                      background_rate=f"{background:.12g}",
                      rep_rate_mhz=args.rep_rate, lifetime_ns=args.lifetime,
                      duration_s=args.duration, seed=args.seed)
    write_g2_histogram(args.out, hist, cfg)
    _emit(args, f"g2_zero = {hist.g2_zero:.6f} +- {hist.g2_zero_err:.6f}")
    return 0


def cmd_modes(args) -> int:
    modes = read_mode_table(args.infile)
    if args.out:
        write_mode_table(args.out, modes, {"command": "modes",
                                           "infile": args.infile})
    total_hr = sum(m.partial_hr for m in modes)
    _emit(args, f"{len(modes)} modes, total HR {total_hr:.12g}, "
                f"total dQ {total_dq(modes):.12g}")
    return 0


def cmd_roundtrip(args) -> int:
    rows = roundtrip_checks()
    _report(args, ["case,metric,value,target,pass"] + [
        f"{case},{metric},{value:.6g},{target},{'PASS' if ok else 'FAIL'}"
        for case, metric, value, target, ok in rows])
    return 0 if all(row[4] for row in rows) else 1


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vibropol",
        description="Vibronic lineshapes, energy-resolved polarimetry and "
                    "photon statistics for phonon-coupled emitters")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--out", default="", required=out_required,
                       help="output file path")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("spectrum", help="vibronic emission spectrum")
    _model_flags(p)
    p.add_argument("--grid", help="min:max:n in eV (default: full band)")
    common(p, out_required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("spectral-function", help="phonon spectral density")
    _model_flags(p)
    p.add_argument("--broadening", type=float, default=2.0,
                   help="Gaussian broadening in meV")
    p.add_argument("--grid-mev", dest="grid_mev",
                   help="min:max:n on the phonon energy axis (meV)")
    common(p, out_required=True)
    p.set_defaults(func=cmd_spectral_function)

    p = sub.add_parser("simulate-map", help="energy x angle intensity map")
    _model_flags(p)
    p.add_argument("--mode", choices=("analyzer", "rqwp"), default="analyzer")
    p.add_argument("--grid", help="min:max:n in eV (default: ZPL +- 30 meV)")
    p.add_argument("--angles", help="start:stop:step in deg")
    p.add_argument("--counts", type=float, default=1e4,
                   help="expected counts at the map maximum")
    p.add_argument("--noise", choices=("none", "poisson"), default="none")
    p.add_argument("--seed", type=int, default=0)
    common(p, out_required=True)
    p.set_defaults(func=cmd_simulate_map)

    p = sub.add_parser("analyze-map", help="per-bin polarization analysis")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=("analyzer", "rqwp"), default="analyzer")
    p.add_argument("--bin-width", dest="bin_width", type=float, default=4.0)
    common(p, out_required=True)
    p.set_defaults(func=cmd_analyze_map)

    p = sub.add_parser("fit-malus", help="Malus-law fit of an analyzer trace")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_fit_malus)

    p = sub.add_parser("stokes", help="Stokes extraction from an RQWP trace")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_stokes)

    p = sub.add_parser("g2", help="pulsed autocorrelation histogram")
    p.add_argument("--signal-fraction", dest="signal_fraction", type=float,
                   help="emitter fraction of counts; sets background rate")
    p.add_argument("--background-rate", dest="background_rate", type=float,
                   default=0.0, help="counts/s (ignored with --signal-fraction)")
    p.add_argument("--signal-prob", dest="signal_prob", type=float, default=0.1)
    p.add_argument("--rep-rate", dest="rep_rate", type=float, default=20.0,
                   help="MHz")
    p.add_argument("--lifetime", type=float, default=2.0, help="ns")
    p.add_argument("--duration", type=float, default=1.0, help="s")
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.5,
                   help="ns")
    p.add_argument("--window", type=float, default=500.0, help="ns")
    p.add_argument("--seed", type=int, default=0)
    common(p, out_required=True)
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("modes", help="validate a phonon mode table")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("roundtrip",
                       help="simulate/analyze consistency report")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    return ap


def _check_args(args) -> None:
    """Reject non-finite float flags, and an --out whose directory is
    missing, before any compute."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not np.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be finite, got {value}")
    if getattr(args, "out", ""):
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent):
            raise FileNotFoundError(
                f"output directory {parent!r} does not exist")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
