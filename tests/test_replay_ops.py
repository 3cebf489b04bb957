"""tools/replay_ops.py draws the op sequence of perfbench/run.py.

The pinned lines were read off a run of ``perfbench/run.py --workload g2
--seed 77 --trace 1`` that printed each op's index, case and noise seed.
"""

import importlib.util
import resource
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_ops.py"


@pytest.fixture(autouse=True)
def _restore_imports(monkeypatch):
    """The tool puts perfbench/ and src/ on sys.path and imports workloads.
    Undo both: hypothesis draws from the constants of every loaded local
    module, so later derandomized tests would draw other examples."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    yield
    for name in set(sys.modules) - loaded:
        del sys.modules[name]


def _tool():
    spec = importlib.util.spec_from_file_location("replay_ops", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_listing_matches_a_traced_benchmark_run(capsys):
    assert _tool().main(["--workload", "g2", "--seed", "77",
                         "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[:3] == ["0 0.943 1183632762", "1 0.943 1183632762",
                         "2 0.8 1708160121"]


def test_replayed_op_is_checked(capsys):
    assert _tool().main(["--workload", "g2", "--seed", "77", "--op", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "op 2: 0.943 noise seed 523745914"
    assert out[-1] == "ok"
    # the op's CPU seconds and the process's peak RSS up to that line
    cpu_key, cpu_s, rss_key, rss_mb = out[-2].split()
    assert (cpu_key, rss_key) == ("cpu_s", "peak_rss_mb")
    assert 0.0 < float(cpu_s) < 60.0
    peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0.0 < float(rss_mb) <= round(peak_now, 1)
