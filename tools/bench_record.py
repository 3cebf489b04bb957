"""Record one benchmark point of the trajectory as ``BENCH_<N>.json``.

    python3 tools/bench_record.py --pr N --parent path/to/parent
    python3 tools/bench_record.py --pr N

With ``--parent``, runs the parent's and this checkout's
``perfbench/run.py`` in turn, each tree its own: on each workload of
``BENCHMARK.json``, 10 untraced pairs (``--trace 0``) at seeds 1-10, the
side that goes first alternating from pair to pair, then one traced run
(``--trace 1``) a side at seed 1, every run in its own process for the
benchmark's ``run_seconds``.  Without it, this checkout alone runs once
untraced and once traced, at seed 1.  The file it writes,
``BENCH_<N>.json`` in this checkout, holds:

- ``pr``, ``seeds``, ``seconds``, and per side (``parent``, ``change``)
  the whole environment line of its first run, commit included;
- per workload, ``end_to_end``: per metric its unit and direction, and per
  side the ``median``, the quartiles ``q1`` and ``q3`` and the per-run
  ``values`` in seed order.  With a parent it also holds ``pairs``,
  ``change_won`` (pairs where the change reads better; a tie counts for
  neither side) and ``gap_exceeds_parent_iqr`` (the medians differ by
  more than the parent's quartile distance) and ``median_pair_ratio``
  (the median over pairs of change / parent: host load that the two
  runs of a pair share moves it less than the medians; no metric reads
  0);
- ``self_s`` and ``sizes``: the traced runs' per-layer self times, and
  their other per-layer metrics (problem sizes, counts and fractions),
  per side;
- ``runs``: per side, each run's seed and trace flag, whether its output
  checks held (``correct``), its ops and its failed ops.

Quartiles are numpy's linear-interpolation percentiles.  Two sides
compare only when one machine measured both, one right after the other.
Exits 0 when every run printed its JSON line, and 2 when a tree has no
benchmark or a run fails to report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> tuple:
    """(environment, JSON result) of one perfbench/run.py process."""
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [sys.executable, str(checkout / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(trace), "--out-dir", out_dir]
        done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = [ln[len("# env "):] for ln in lines if ln.startswith("# env ")]
    if done.returncode != 0 or not env or not lines[-1].startswith("{"):
        why = (done.stderr.strip() or "no JSON line").splitlines()[-1]
        raise RuntimeError(f"{workload} --trace {trace}: {why}")
    return json.loads(env[0]), json.loads(lines[-1])


def summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": list(values)}


def compare(metric: dict, better: str) -> None:
    """Add the pair statistics of the change against the parent."""
    sign = 1.0 if better == "higher" else -1.0
    parent, change = metric["parent"], metric["change"]
    metric["pairs"] = len(parent["values"])
    metric["change_won"] = sum(sign * (c - p) > 0 for p, c in
                               zip(parent["values"], change["values"]))
    metric["gap_exceeds_parent_iqr"] = bool(
        abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"])
    metric["median_pair_ratio"] = float(np.median(
        [c / p for p, c in zip(parent["values"], change["values"])]))


def record(trees: dict, benchmark: dict, workloads, seeds, seconds) -> dict:
    """The file's contents but for ``pr``.

    trees maps each side, ``change`` and optionally ``parent``, to its
    checkout; the pairs run in the order of seeds."""
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rec = {"seeds": list(seeds), "seconds": seconds,
           "sides": {side: {} for side in trees}, "workloads": {}}

    for name in workloads:
        runs = {side: [] for side in trees}

        def one(side, seed, trace):
            env, res = run(trees[side], name, seed, seconds, trace)
            rec["sides"][side].setdefault("env", env)
            runs[side].append({"seed": seed, "trace": trace,
                               **{k: res[k] for k in
                                  ("correct", "attempted", "failed")}})
            return res["metrics"]

        plain = {side: [] for side in trees}
        for i, seed in enumerate(seeds):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                plain[side].append(one(side, seed, 0))
        traced = {side: one(side, seeds[0], 1) for side in trees}
        end_to_end = {}
        for metric, m in plain[next(iter(trees))][0].items():
            end_to_end[metric] = {"unit": m["unit"], "better": better[metric],
                                  **{side: summary([r[metric]["value"]
                                                    for r in plain[side]])
                                     for side in trees}}
            if "parent" in trees:
                compare(end_to_end[metric], better[metric])
        layer = {metric: {"unit": m["unit"], "better": better[metric],
                          **{side: traced[side][metric]["value"]
                             for side in trees}}
                 for metric, m in traced[next(iter(trees))].items()}
        rec["workloads"][name] = {
            "end_to_end": end_to_end,
            "self_s": {k: v for k, v in layer.items() if k.endswith(".self_s")},
            "sizes": {k: v for k, v in layer.items()
                      if not k.endswith(".self_s")},
            "runs": runs,
        }
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="the number N in BENCH_<N>.json")
    ap.add_argument("--parent", help="the parent's checkout: record pairs")
    args = ap.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    for checkout in trees.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: {checkout} holds no perfbench/run.py",
                  file=sys.stderr)
            return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seeds = tuple(range(1, 11)) if "parent" in trees else (1,)
    try:
        rec = record(trees, benchmark, workloads, seeds,
                     benchmark["run_seconds"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, **rec}, indent=1,
                              sort_keys=True) + "\n")
    for name, w in rec["workloads"].items():
        for metric, m in w["end_to_end"].items():
            line = "  ".join(f"{side} {m[side]['median']:.6g}"
                             for side in trees)
            if "parent" in trees:
                line += (f"  won {m['change_won']}/{m['pairs']}  ratio "
                         f"{m['median_pair_ratio']:.4g}  gap > IQR "
                         f"{m['gap_exceeds_parent_iqr']}")
            print(f"{name:<9} {metric:<12} {line} {m['unit']}")
    print(f"# wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
