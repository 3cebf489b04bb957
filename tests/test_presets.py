"""The shipped presets are exactly what tools/make_presets.py calibrates.

A change that moves a quantity the calibration reads (the analyzed sweep
and DOLP, the OPSB offset, the intra-OPSB psi range) fails here until the
presets are regenerated with ``python3 tools/make_presets.py``.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_presets.py"


def test_shipped_presets_match_the_calibration():
    spec = importlib.util.spec_from_file_location("make_presets", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    texts = tool.calibrate()
    assert sorted(texts) == ["strong_coupling", "weak_coupling"]
    for name, text in texts.items():
        shipped = (tool.PRESET_DIR / f"{name}.cfg").read_bytes()
        assert text.encode("utf-8") == shipped, name
