"""Run the output-producing commands on two source trees and compare files.

    python3 tools/compare_outputs.py --src path/to/A --src path/to/B

Each ``--src`` is a checkout (its ``src/`` is imported) or a directory
holding the ``vibropol`` package.  Each tree runs in its own interpreter and
its own scratch directory, with the same relative file names, so the
``#`` headers match when the outputs do:

- ``spectrum`` on both presets at 0, 6, 50, 100, 200 and 300 K, on the
  default full-band grid;
- ``simulate-map`` in both modes (analyzer and RQWP) on both presets at 6
  and 300 K, with noise ``none`` and ``poisson`` (seed 7), each followed by
  ``analyze-map`` in its mode, at the default 4 meV bins;
- ``analyze-map --bin-width 2.7`` of the strong preset's 300 K analyzer
  maps, noise-free and Poisson: 22 full bins and a trailing 0.6 meV
  partial one;
- with a ``--config`` file holding ``zpl_profile = lorentzian`` over each
  preset: ``spectrum`` at 0 and 300 K, and the noise-free analyzer map at
  300 K with its ``analyze-map`` report;
- ``g2`` (seed 7) and the ``roundtrip`` report.

One line per file: ``identical``, or ``differs`` with the number of data
rows that differ out of A's, then the largest deviation in a numeric column
relative to that column's peak |value| in A, that column's largest
absolute deviation and its name, the names of the columns where a cell
changes between NaN and a number, and the largest absolute deviation of
every numeric column, so that a small move of psi shows beside a column
whose peak is rounding noise.  A column is numeric when every cell of
it parses as a number in both files; text columns are skipped.
Exits 0 when every file is identical, 1 when some differ, and 2 when a
tree holds no ``vibropol`` or fails to run a command.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PRESETS = ("strong_coupling", "weak_coupling")
SPECTRUM_TEMPS = (0, 6, 50, 100, 200, 300)
MAP_TEMPS = (6, 300)
MAP_MODES = ("analyzer", "rqwp")
# written into each tree's scratch directory: no preset is Lorentzian
LORENTZIAN_CFG = "lorentzian.cfg"

# runs in the tree's interpreter: argv[1] is the JSON list of CLI calls
CHILD = """
import json, sys
import vibropol, vibropol.cli as cli
print(vibropol.__file__)
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    if rc:
        sys.exit(f"exit code {rc} from {' '.join(argv)}")
"""


def commands() -> list:
    """The CLI calls each tree runs, writing into the working directory."""
    out = [["spectrum", "--preset", p, "--temp", str(t),
            "--out", f"spectrum-{p}-{t}K.csv", "--quiet"]
           for p in PRESETS for t in SPECTRUM_TEMPS]
    for mode in MAP_MODES:
        for p in PRESETS:
            for t in MAP_TEMPS:
                for noise in ("none", "poisson"):
                    name = f"{mode}-{p}-{t}K-{noise}"
                    out += [["simulate-map", "--preset", p, "--temp", str(t),
                             "--mode", mode, "--noise", noise, "--seed", "7",
                             "--out", f"map-{name}.csv", "--quiet"],
                            ["analyze-map", "--in", f"map-{name}.csv",
                             "--mode", mode, "--out", f"report-{name}.csv",
                             "--quiet"]]
    for noise in ("none", "poisson"):
        name = f"analyzer-strong_coupling-300K-{noise}"
        out.append(["analyze-map", "--in", f"map-{name}.csv", "--bin-width",
                    "2.7", "--out", f"report-{name}-2.7meV.csv", "--quiet"])
    for p in PRESETS:
        model = ["--preset", p, "--config", LORENTZIAN_CFG]
        name = f"lorentzian-{p}-300K"
        out += [["spectrum", *model, "--temp", str(t), "--out",
                 f"spectrum-lorentzian-{p}-{t}K.csv", "--quiet"]
                for t in (0, 300)]
        out += [["simulate-map", *model, "--temp", "300", "--out",
                 f"map-{name}.csv", "--quiet"],
                ["analyze-map", "--in", f"map-{name}.csv", "--out",
                 f"report-{name}.csv", "--quiet"]]
    return out + [["g2", "--seed", "7", "--out", "g2.csv", "--quiet"],
                  ["roundtrip", "--out", "roundtrip.csv", "--quiet"]]


def package_root(src: str) -> Path:
    """The directory holding ``vibropol``: src itself or its ``src/``."""
    path = Path(src).resolve()
    return path / "src" if (path / "src" / "vibropol").is_dir() else path


def run_tree(root: Path, dest: Path) -> None:
    """Run every command with vibropol from ``root``, in ``dest``."""
    (dest / LORENTZIAN_CFG).write_text("zpl_profile = lorentzian\n")
    env = dict(os.environ, PYTHONPATH=str(root))
    argv = [sys.executable, "-c", CHILD, json.dumps(commands())]
    done = subprocess.run(argv, cwd=dest, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {done.stderr.strip().splitlines()[-1]}")
    used = Path(done.stdout.splitlines()[0]).parent.parent
    if used != root:
        raise RuntimeError(f"{root}: imported vibropol from {used}")


def _table(path: Path):
    """(column names, data rows as text) of a CSV with ``#`` comments."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), lines[1:]


def _numbers(cells):
    """The cells as floats, or None when one of them is not a number."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return None


def compare(a: Path, b: Path) -> str:
    """One report line for the file pair."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    names, rows_a = _table(a)
    names_b, rows_b = _table(b)
    if names != names_b or len(rows_a) != len(rows_b):
        return (f"differs  columns or row count: {len(rows_a)} rows "
                f"({','.join(names)}) vs {len(rows_b)} ({','.join(names_b)})")
    changed = sum(ra != rb for ra, rb in zip(rows_a, rows_b))
    text = f"differs  rows {changed}/{len(rows_a)}"
    cells = [[r.split(",") for r in rows] for rows in (rows_a, rows_b)]
    if any(len(r) != len(names) for rows in cells for r in rows):
        return text + "  (rows of unequal length)"
    worst, flips, devs = None, [], []
    for name, col_a, col_b in zip(names, zip(*cells[0]), zip(*cells[1])):
        x, y = _numbers(col_a), _numbers(col_b)
        if x is None or y is None:
            continue
        if np.any(np.isnan(x) != np.isnan(y)):
            flips.append(name)
        with np.errstate(invalid="ignore"):
            dev = np.nanmax(np.abs(x - y), initial=0.0)
        devs.append(f"{name} {dev:.2e}")
        peak = np.nanmax(np.abs(x), initial=0.0)
        rel = dev / peak if dev > 0 else 0.0
        if worst is None or rel > worst[0]:
            worst = (rel, dev, name)
    if worst is None:
        return text + "  (no numeric column)"
    rel, dev, name = worst
    text += f"  max {rel:.2e} of peak, {dev:.2e} absolute ({name})"
    text += f"  NaN <-> number: {','.join(flips)}" if flips else ""
    return text + f"  absolute by column: {', '.join(devs)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a checkout or package directory; give it twice")
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    roots = [package_root(s) for s in args.src]
    for root in roots:
        if not (root / "vibropol").is_dir():
            print(f"error: {root} holds no vibropol package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "a", Path(tmp) / "b"]
        try:
            for root, d in zip(roots, dirs):
                d.mkdir()
                run_tree(root, d)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        names = sorted(p.name for p in dirs[0].glob("*.csv"))
        print(f"# A = {roots[0]}\n# B = {roots[1]}")
        reports = {n: compare(dirs[0] / n, dirs[1] / n) for n in names}
    for name, line in reports.items():
        print(f"{name}  {line}")
    same = sum(line == "identical" for line in reports.values())
    print(f"# {same} of {len(reports)} files identical")
    return 0 if same == len(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
