"""tools/bench_record.py records perfbench/run.py's metrics in one file."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_short_g2_run_is_recorded():
    rec = _tool().record(ROOT, ["g2"], 1, 0.1)
    assert (rec["seed"], rec["seconds"]) == (1, 0.1)
    assert rec["commit"] == rec["env"]["commit"] and rec["env"]["nproc"] >= 1
    assert list(rec["workloads"]) == ["g2"]
    g2 = rec["workloads"]["g2"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(g2["end_to_end"]) == {m["name"]
                                     for m in benchmark["end_to_end"]}
    assert g2["end_to_end"]["ok_frac"]["value"] == 1.0
    # one round of the four g2 cases; a traced round runs each case twice
    assert g2["runs"] == {"trace0": {"correct": True, "attempted": 4,
                                     "failed": 0},
                          "trace1": {"correct": True, "attempted": 8,
                                     "failed": 0}}
    assert set(g2["self_s"]) | set(g2["sizes"]) == {
        m["name"] for m in benchmark["per_layer"]}
    assert g2["self_s"]["photostats.simulate_stream.self_s"]["value"] > 0
    assert g2["self_s"]["dipole.orientation_vs_energy.self_s"]["value"] == 0
    # g2 --duration 1 holds about 2.1M tags
    assert g2["sizes"]["photostats.tags"]["value"] > 1e6


def test_a_checkout_without_the_benchmark_is_an_error(tmp_path, capsys):
    assert _tool().main(["--pr", "0", "--checkout", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path} holds no "
                                       "perfbench/run.py\n")
