"""Smoke test of the benchmark: one short run per workload and trace mode.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Each run must end with exit code 0, print every metric BENCHMARK.json
names for its mode with that metric's unit, and report no failed op.
All files go to pytest's temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric(workload, trace, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=180, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "fail_frac = 0 " in out.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert all(p.name.startswith("spans-") for p in tmp_path.iterdir())


def test_refuses_to_run_without_the_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "g2", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert out.returncode != 0
    assert not out.stdout.strip()
