"""The benchmark's workloads: their cases, CLI calls and output checks.

Each workload is a fixed list of cases.  The seed shuffles the order of
the cases within each round and draws the noise seeds; it never changes
which cases are in the mix, so runs with different seeds are comparable.
An op is the CLI calls of one case; its outputs are read back with the
benchmark's own parsers (not vibropol.io) and checked against references
built once, untimed, during set-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

# polmap: noisy psi may differ from the noise-free reference by at most
# this much on bins holding >= 1% of the peak weight.  The worst seen over
# 300 noise seeds of each of the 8 cases is 1.6 deg.
PSI_TOL_DEG = 3.0
MIN_WEIGHT_FRAC = 0.01
# g2: |g2(0) - (1 - rho^2)| must lie within this many reported errors.
G2_SIGMAS = 6.0
# spectrum: CSV vs lineshape reference, as a fraction of the peak.
SPECTRUM_TOL = 1e-8
# oracle cross-check tolerance and mask, as in the acceptance suite.
ORACLE_TOL = 1e-5
ORACLE_MASK = 1e-8

PRESETS = ("strong_coupling", "weak_coupling")


class CheckFailed(Exception):
    """An op's output does not match its reference."""


def read_csv(path, header):
    """Numeric rows of a vibropol CSV, plus its '#' lines."""
    comments, rows, seen = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line)
            elif seen is None:
                seen = line
            else:
                rows.append(line.split(","))
    if seen != header:
        raise CheckFailed(f"{os.path.basename(path)}: header {seen!r}")
    return np.array(rows, dtype=float), comments


def angle_diff(a, b):
    return np.abs((a - b + 90.0) % 180.0 - 90.0)


class Polmap:
    """simulate-map --noise poisson, then analyze-map, default grid."""

    name = "polmap"
    cases = [(p, t, m) for p in PRESETS for t in (6.0, 300.0)
             for m in ("analyzer", "rqwp")]

    def setup(self, vp):
        self.refs = {}
        for preset, temp, mode in self.cases:
            model = vp.load_preset(preset, temperature_k=temp)
            grid = vp.make_grid(model.zpl_energy - 0.030,
                                model.zpl_energy + 0.030, 601)
            angles = np.arange(0.0, 180.0 if mode == "analyzer" else 360.0,
                               10.0)
            pmap = vp.simulate_polarization_map(model, grid, angles, mode=mode,
                                                counts_per_point=1e4)
            ref = vp.analyze_map(pmap, mode=mode, bin_width_mev=4.0)
            ok = True
            if (preset, temp) == ("strong_coupling", 300.0):
                d = ref.dolp[ref.valid]
                ok = (abs(ref.sweep() - 40.0) <= 2.0 and d.min() >= 0.55
                      and d.max() <= 0.85)
            self.refs[(preset, temp, mode)] = (ref, grid.n_points * angles.size,
                                               ok)
        return all(r[2] for r in self.refs.values())

    def argv(self, case, seed, d):
        preset, temp, mode = case
        return [["simulate-map", "--preset", preset, "--temp", str(temp),
                 "--mode", mode, "--noise", "poisson", "--seed", str(seed),
                 "--out", os.path.join(d, "map.csv"), "--quiet"],
                ["analyze-map", "--in", os.path.join(d, "map.csv"),
                 "--mode", mode, "--out", os.path.join(d, "report.csv"),
                 "--quiet"]]

    def check(self, case, d):
        ref, cells, ok = self.refs[case]
        if not ok:
            raise CheckFailed("noise-free reference misses the "
                              "roundtrip bounds")
        counts, _ = read_csv(os.path.join(d, "map.csv"),
                             "energy_ev,angle_deg,intensity")
        c = counts[:, 2]
        if len(c) != cells or np.any(c < 0) or np.any(c != np.rint(c)):
            raise CheckFailed("map is not a full grid of Poisson counts")
        rep, _ = read_csv(os.path.join(d, "report.csv"),
                          "energy_ev,theta0_deg,dolp,psi_deg,chi_deg,dop,"
                          "valid,rms_residual")
        if rep.shape[0] != ref.grid.n_points or not np.allclose(
                rep[:, 0], ref.grid.points, rtol=0, atol=1e-9):
            raise CheckFailed("report bins differ from the reference")
        valid = rep[:, 6] == 1
        if not np.array_equal(valid, ref.valid):
            raise CheckFailed("valid bins differ from the reference")
        sel = ref.valid & (ref.weight >= MIN_WEIGHT_FRAC * ref.weight.max())
        dev = angle_diff(rep[sel, 3], ref.psi[sel])
        if not dev.max() <= PSI_TOL_DEG:
            raise CheckFailed(f"psi off reference by {dev.max():.3f} deg")


class Spectrum:
    """spectrum on the default full-band grid over a temperature ladder."""

    name = "spectrum"
    cases = [(p, t) for p in PRESETS for t in (0.0, 6.0, 50.0, 100.0, 200.0,
                                               300.0)]

    def setup(self, vp):
        self.refs = {}
        for preset, temp in self.cases:
            model = vp.load_preset(preset, temperature_k=temp)
            spec = vp.lineshape(model, vp.full_band_grid(model))
            e = spec.grid.points
            self.refs[(preset, temp)] = (
                e, spec.intensity / np.trapezoid(spec.intensity, e * 1e3))
        return True

    @staticmethod
    def crosscheck(vp):
        """GF lineshape vs brute-force FC oracle, 3-mode strong, 300 K."""
        model = vp.load_preset("strong_coupling", temperature_k=300.0)
        model = replace(model, modes=model.modes[:3])
        grid = vp.full_band_grid(model)
        a = vp.lineshape(model, grid).intensity
        b = vp.lineshape_bruteforce(model, grid, max_quanta=40).intensity
        mask = a > ORACLE_MASK * a.max()
        worst = float(np.max(np.abs(a[mask] - b[mask]) / a[mask]))
        return worst < ORACLE_TOL, worst

    def argv(self, case, seed, d):
        preset, temp = case
        return [["spectrum", "--preset", preset, "--temp", str(temp),
                 "--out", os.path.join(d, "spectrum.csv"), "--quiet"]]

    def check(self, case, d):
        e, ref = self.refs[case]
        data, _ = read_csv(os.path.join(d, "spectrum.csv"),
                           "energy_ev,intensity")
        if data.shape[0] != e.size or not np.allclose(
                data[:, 0], e, rtol=1e-11, atol=0):
            raise CheckFailed("spectrum grid differs from full_band_grid")
        err = np.max(np.abs(data[:, 1] - ref)) / ref.max()
        if not err <= SPECTRUM_TOL:
            raise CheckFailed(f"spectrum off reference by {err:.2e} of peak")


class G2:
    """g2 --duration 1 at the paper's signal fraction, others cycled in."""

    name = "g2"
    cases = [0.943, 0.883, 0.943, 0.8]
    bins = 2000                  # CLI defaults: +-500 ns window, 0.5 ns bins

    def setup(self, vp):
        return True

    def argv(self, case, seed, d):
        return [["g2", "--signal-fraction", str(case), "--duration", "1",
                 "--seed", str(seed), "--out", os.path.join(d, "g2.csv"),
                 "--quiet"]]

    def check(self, case, d):
        data, comments = read_csv(os.path.join(d, "g2.csv"),
                                  "tau_ns,coincidences")
        if data.shape[0] != self.bins or data[:, 1].sum() <= 0:
            raise CheckFailed("g2 histogram is empty or misbinned")
        fields = dict(f.split("=") for f in comments[-1].lstrip("# ").split())
        g2, err = float(fields["g2_zero"]), float(fields["err"])
        expected = 1.0 - case ** 2
        if not (err > 0 and math.isfinite(g2)
                and abs(g2 - expected) <= G2_SIGMAS * err):
            raise CheckFailed(f"g2(0) = {g2:.5f} +- {err:.5f}, "
                              f"expected {expected:.5f}")


WORKLOADS = {w.name: w for w in (Polmap, Spectrum, G2)}
