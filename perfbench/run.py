#!/usr/bin/env python3
"""vibropol benchmark: drives the CLI in-process and checks every output.

    python3 perfbench/run.py --workload polmap --seed 1 --seconds 24 --trace 0

One caller, one process, closed loop: each op is one case's
``vibropol.cli.main([...])`` calls with ``--quiet``; its output files are
read back and checked, untimed, after it returns.  The loop runs whole
rounds (every case once, in a seed-shuffled order) until ``--seconds``
have passed, so every run measures the same mix of cases.

Op and set-up times are CPU seconds of the process (``time.process_time``:
user plus system time of all its threads).  On a shared virtual machine
the wall time of one run differs from the next by 10-15% through other
tenants' load and stolen time; the CPU time of these ops, which neither
sleep nor wait on the network, matches their wall time on an idle
machine and varies far less.  Time spent waiting (on a disk, or on
another process) is not counted.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
case twice per round, once untraced and once with vibropol's layer
entry points wrapped (see tracing.py), and prints per-layer self times and
counts per traced op.  Human-readable lines come first; the last line of
standard output is the JSON result.  Op files go to a temporary
directory under ``--out-dir``, which is removed at the end; a traced run
also leaves its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
# import, parser build and first preset load, timed in a fresh interpreter
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.process_time()
import vibropol.cli as cli
cli.build_parser()
cli.load_preset("strong_coupling")
print(time.process_time() - t0)
"""
PER_OP_LAYERS = (
    "dipole.orientation_vs_energy", "dipole.apply_strain_bias",
    "vibronic.mode_line_weights", "vibronic.acoustic_wing_density",
    "vibronic.lineshape_density", "polarimetry.simulate_polarization_map",
    "polarimetry.analyze_map", "photostats.simulate_stream",
    "photostats.g2_histogram", "io.write", "io.read", "config", "cli")


def pin_threads() -> None:
    """One BLAS/OpenMP thread (<= nproc); must run before numpy loads.

    The ops are single-threaded numpy/scipy code.  With one pool thread
    no idle worker spins, so the process CPU time counts only the work.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup() -> float:
    """Median set-up time over SETUP_REPS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def environment(nproc: int, np, scipy) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "vibropol").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": nproc, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit, "source_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def tail(durations):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or
    fewer no such percentile exists, and the maximum is returned.
    """
    x = sorted(durations)
    n = len(x)
    i = n - 11 if n > 10 else n - 1
    return x[i], 100.0 * (i + 1) / n, n - 1 - i


class Op:
    __slots__ = ("id", "case", "traced", "seconds", "error")

    def __init__(self, id, case, traced):
        self.id, self.case, self.traced = id, case, traced
        self.seconds, self.error = 0.0, None


def run_op(op, workload, cli, seed, opdir, tracer):
    if op.traced:
        tracer.op = op.id
        tracer.install()
    argvs = workload.argv(op.case, seed, opdir)
    t0 = time.process_time()
    try:
        for argv in argvs:
            rc = cli.main(argv)         # looked up per call: may be traced
            if rc != 0:
                op.error = f"exit code {rc} from {argv[0]}"
                break
    except (Exception, SystemExit) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    finally:
        op.seconds = time.process_time() - t0
        if op.traced:
            tracer.remove()
    if op.error is None:
        try:
            workload.check(op.case, opdir)
        except Exception as exc:
            op.error = f"check: {type(exc).__name__}: {exc}"


def end_to_end(ops, setup_s):
    durations = [op.seconds for op in ops]
    ok = sum(op.error is None for op in ops)
    value, pct, beyond = tail(durations)
    print(f"# op_tail_s is p{pct:.4g} of {len(durations)} ops, "
          f"{beyond} beyond it")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (ok / len(ops), "fraction"),
    }


def per_layer(ops, tracer):
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    agg = tracer.self_times({op.id for op in traced})

    def get(name):
        return agg.get(name, (0.0, 0, {}))

    def count(name, key):
        return get(name)[2].get(key, 0) / n

    def frac(name, num, den):
        c = get(name)[2]
        return c[num] / c[den] if c.get(den) else 0.0

    m = {f"{name}.self_s": (get(name)[0] / n, "s/op") for name in PER_OP_LAYERS}
    for name in ("dipole.orientation_vs_energy", "vibronic.lineshape_density"):
        m[f"{name}.calls"] = (get(name)[1] / n, "count/op")
    m["dipole.points"] = (count("dipole.orientation_vs_energy", "points"),
                          "count/op")
    m["dipole.valid_frac"] = (frac("dipole.orientation_vs_energy", "valid",
                                   "points"), "fraction")
    m["vibronic.points"] = (count("vibronic.lineshape_density", "points"),
                            "count/op")
    oracle = tracer.self_times({"crosscheck"})
    m["vibronic.lineshape_bruteforce.self_s"] = (
        oracle.get("vibronic.lineshape_bruteforce", (0.0,))[0], "s")
    m["polarimetry.map_cells"] = (
        count("polarimetry.simulate_polarization_map", "cells"), "count/op")
    m["polarimetry.valid_bin_frac"] = (
        frac("polarimetry.analyze_map", "valid", "bins"), "fraction")
    m["photostats.tags"] = (count("photostats.simulate_stream", "tags"),
                            "count/op")
    m["photostats.pairs"] = (count("photostats.g2_histogram", "pairs"),
                             "count/op")
    m["io.bytes_written"] = (count("io.write", "bytes"), "B/op")
    m["io.bytes_read"] = (count("io.read", "bytes"), "B/op")
    traced_s = sum(op.seconds for op in traced)
    plain_s = sum(op.seconds for op in plain)
    m["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    self_sum = sum(v[0] for v in agg.values()) / n
    print(f"# traced op {traced_s / n:.6g} s, untraced op {plain_s / n:.6g} s"
          f", self times sum to {self_sum:.6g} s per traced op")
    for name, (s, calls, _) in sorted(agg.items(), key=lambda kv: -kv[1][0]):
        print(f"# span {name:<40} {s / n:10.6f} s/op {calls / n:9.2f} calls/op")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"),
                    help="where op files and spans go")
    args = ap.parse_args(argv)

    if not (SRC / "vibropol" / "__init__.py").is_file():
        print(f"error: no vibropol source under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import vibropol
    import vibropol.cli as cli
    if Path(vibropol.__file__).resolve().parent != (SRC / "vibropol").resolve():
        print(f"error: imported vibropol from {vibropol.__file__}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(nproc, np, scipy)
    print("# env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]()
    setup_s = None if args.trace else measure_setup()
    correct = workload.setup(vibropol)
    tracer = Tracer() if args.trace else None
    crosscheck = getattr(workload, "crosscheck", None)
    if crosscheck is not None:
        if tracer:
            tracer.op = "crosscheck"
            tracer.install()
        try:
            ok, worst = crosscheck(vibropol)
        finally:
            if tracer:
                tracer.remove()
        print(f"# GF vs brute-force oracle: worst rel. deviation {worst:.3g}")
        correct = correct and ok

    os.makedirs(args.out_dir, exist_ok=True)
    opdir = tempfile.mkdtemp(prefix=f"ops-{args.workload}-", dir=args.out_dir)
    rng = np.random.default_rng(args.seed)
    ops = []
    try:
        t_start = time.perf_counter()
        while not ops or time.perf_counter() - t_start < args.seconds:
            for i in rng.permutation(len(workload.cases)):
                case = workload.cases[i]
                seed = int(rng.integers(2 ** 31))
                sides = (False,)
                if args.trace:
                    # twins share the seed; which runs first alternates
                    sides = (False, True) if len(ops) % 4 == 0 else (True, False)
                for traced in sides:
                    op = Op(len(ops), case, traced)
                    run_op(op, workload, cli, seed, opdir, tracer)
                    ops.append(op)
    finally:
        shutil.rmtree(opdir, ignore_errors=True)

    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"# FAILED {args.workload} {op.case}: {op.error}",
              file=sys.stderr)
    if args.trace:
        metrics = per_layer(ops, tracer)
        tracer.dump(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(ops, setup_s)
    print(f"# fail_frac = {len(failed) / len(ops):.6g} "
          f"({len(failed)} of {len(ops)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload:<9} {name:<46} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct and not failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
