"""Record one benchmark point of the trajectory as ``BENCH_<N>.json``.

    python3 tools/bench_record.py --pr 27
    python3 tools/bench_record.py --pr 26 --checkout path/to/parent

Runs ``perfbench/run.py`` of ``--checkout`` (default: this checkout), as it
stands, twice on each workload of ``BENCHMARK.json``: ``--trace 0`` for
the end-to-end metrics and ``--trace 1`` for the per-layer ones, each in
its own process, with seed 1, for the benchmark's ``run_seconds``.  The
file it writes, ``BENCH_<N>.json`` in this checkout, holds:

- ``pr``, ``seed``, ``seconds``, and ``commit`` and ``env``: the commit
  and the whole environment line of the untraced run of the first workload;
- per workload, ``end_to_end``: the untraced run's metrics;
- ``self_s``: the traced run's per-layer self times;
- ``sizes``: its other per-layer metrics, the problem sizes (points, map
  cells, tags, pairs, bytes and calls per op) and fractions;
- ``runs``: for each run, whether its output checks held (``correct``),
  its ops and its failed ops.

Two files compare only when both were measured on the same machine, one
right after the other.  Exits 0 when every run printed its JSON line, and
2 when the checkout has no benchmark or a run fails to report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

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


def record(checkout: Path, workloads, seed: int, seconds: float) -> dict:
    """The file's contents but for ``pr``."""
    rec = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in workloads:
        env, plain = run(checkout, name, seed, seconds, 0)
        _, traced = run(checkout, name, seed, seconds, 1)
        rec.setdefault("env", env)
        layer = traced["metrics"].items()
        rec["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "self_s": {k: v for k, v in layer if k.endswith(".self_s")},
            "sizes": {k: v for k, v in layer if not k.endswith(".self_s")},
            "runs": {f"trace{t}": {k: res[k] for k in
                                   ("correct", "attempted", "failed")}
                     for t, res in ((0, plain), (1, traced))},
        }
    rec["commit"] = rec["env"]["commit"]
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="the number N in BENCH_<N>.json")
    ap.add_argument("--checkout", default=str(ROOT),
                    help="the checkout whose perfbench/run.py runs")
    args = ap.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        print(f"error: {checkout} holds no perfbench/run.py", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    try:
        rec = record(checkout, workloads, 1, benchmark["run_seconds"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, **rec}, indent=1,
                              sort_keys=True) + "\n")
    for name, w in rec["workloads"].items():
        for metric, m in w["end_to_end"].items():
            print(f"{name:<9} {metric:<12} {m['value']:.6g} {m['unit']}")
    print(f"# wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
