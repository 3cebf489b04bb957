"""List the ops of a perfbench run, and re-run one on any source tree.

``perfbench/run.py`` draws its ops from ``np.random.default_rng(seed)``:
each round permutes the workload's cases and draws one noise seed per
case.  This tool makes the same draws, so an op that a run reports as
failed can be found by its case and replayed on two trees:

    python3 tools/replay_ops.py --workload polmap --seed 501 --rounds 2
    python3 tools/replay_ops.py --workload polmap --seed 501 --op 17 \\
        --src path/to/other/checkout/src

The listing prints ``op case noise_seed`` lines.  ``--trace 1`` numbers
the ops as a traced run does: each draw runs twice, so it takes two op
indices.  ``--op N`` re-runs op N's CLI calls with vibropol from ``--src``
(default: this checkout), applies the workload's output check, prints
the op's CPU seconds (``time.process_time``, as perfbench/run.py times an
op) and the process's peak RSS, and exits 0 if the check passes and 1 if
it fails.  Replaying one op with ``--src`` set to each of two trees, in
two processes, compares their time and memory on that op alone.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def op_sequence(n_cases: int, seed: int, rounds: int, traced: bool = False):
    """Yield (op index, case index, noise seed) in perfbench/run.py's order."""
    rng = np.random.default_rng(seed)
    op = 0
    for _ in range(rounds):
        for i in rng.permutation(n_cases):
            noise_seed = int(rng.integers(2 ** 31))
            for _twin in range(2 if traced else 1):
                yield op, int(i), noise_seed
                op += 1


def replay(workload, case, noise_seed: int, src: Path):
    """Run one op on the tree at ``src``.  Returns (failure or None if its
    check passes, CPU seconds of the op's CLI calls)."""
    sys.path.insert(0, str(src))
    import vibropol
    import vibropol.cli as cli
    print(f"# vibropol from {Path(vibropol.__file__).parent}")
    if not workload.setup(vibropol):
        return "workload set-up check failed", 0.0
    with tempfile.TemporaryDirectory() as d:
        t0 = time.process_time()
        for argv in workload.argv(case, noise_seed, d):
            rc = cli.main(argv)
            if rc != 0:
                return (f"exit code {rc} from {argv[0]}",
                        time.process_time() - t0)
        cpu_s = time.process_time() - t0
        try:
            workload.check(case, d)
        except Exception as exc:
            return f"check: {type(exc).__name__}: {exc}", cpu_s
    return None, cpu_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1,
                    help="rounds to list (default 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op", type=int, help="re-run this op and check it")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="source tree holding the vibropol package")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    cases = workload.cases
    per_round = len(cases) * (2 if args.trace else 1)
    rounds = args.rounds if args.op is None else args.op // per_round + 1
    ops = list(op_sequence(len(cases), args.seed, rounds, bool(args.trace)))
    if args.op is None:
        for op, i, noise_seed in ops:
            print(op, cases[i], noise_seed)
        return 0
    _, i, noise_seed = ops[args.op]
    print(f"op {args.op}: {cases[i]} noise seed {noise_seed}")
    error, cpu_s = replay(workload, cases[i], noise_seed, Path(args.src))
    # ru_maxrss is in KiB on Linux, as perfbench/run.py reads it
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"cpu_s {cpu_s:.4f} peak_rss_mb {peak_mb:.1f}")
    print("ok" if error is None else f"FAILED {error}")
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
