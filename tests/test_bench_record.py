"""tools/bench_record.py records perfbench/run.py's metrics in one file."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_short_g2_run_is_recorded():
    # two 0.1 s g2 pairs, this checkout on both sides
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = _tool().record({"parent": ROOT, "change": ROOT}, benchmark, ["g2"],
                         (1, 2), 0.1)
    assert (rec["seeds"], rec["seconds"]) == ([1, 2], 0.1)
    for side in ("parent", "change"):
        assert rec["sides"][side]["env"]["nproc"] >= 1
    assert list(rec["workloads"]) == ["g2"]
    g2 = rec["workloads"]["g2"]
    # one round of the four g2 cases a run; a traced round runs each twice
    for side in ("parent", "change"):
        assert g2["runs"][side] == [
            {"seed": 1, "trace": 0, "correct": True, "attempted": 4,
             "failed": 0},
            {"seed": 2, "trace": 0, "correct": True, "attempted": 4,
             "failed": 0},
            {"seed": 1, "trace": 1, "correct": True, "attempted": 8,
             "failed": 0}]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    assert set(g2["end_to_end"]) == set(better)
    for name, m in g2["end_to_end"].items():
        assert m["better"] == better[name] and m["pairs"] == 2
        for side in ("parent", "change"):
            values = m[side]["values"]
            assert len(values) == 2
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            assert (m[side]["q1"], m[side]["median"], m[side]["q3"]) == (
                q1, median, q3)
        sign = 1 if better[name] == "higher" else -1
        assert m["change_won"] == sum(
            sign * (c - p) > 0
            for p, c in zip(m["parent"]["values"], m["change"]["values"]))
        gap = abs(m["change"]["median"] - m["parent"]["median"])
        assert m["gap_exceeds_parent_iqr"] == (
            gap > m["parent"]["q3"] - m["parent"]["q1"])
        assert m["median_pair_ratio"] == np.median(
            [c / p for p, c in zip(m["parent"]["values"],
                                   m["change"]["values"])])
    assert g2["end_to_end"]["ok_frac"]["change"]["values"] == [1.0, 1.0]
    assert set(g2["self_s"]) | set(g2["sizes"]) == {
        m["name"] for m in benchmark["per_layer"]}
    for side in ("parent", "change"):
        # the CLI draws the stream inside g2_histogram, block by block
        assert g2["self_s"]["photostats.g2_histogram.self_s"][side] > 0
        assert g2["self_s"]["dipole.orientation_vs_energy.self_s"][side] == 0
        assert g2["sizes"]["photostats.pairs"][side] > 1e5


def test_a_checkout_without_the_benchmark_is_an_error(tmp_path, capsys):
    assert _tool().main(["--pr", "0", "--parent", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path} holds no "
                                       "perfbench/run.py\n")
