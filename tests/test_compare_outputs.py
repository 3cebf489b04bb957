"""tools/compare_outputs.py runs every output command on two trees."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_tree_matches_itself(capsys):
    assert _tool().main(["--src", str(ROOT), "--src", str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"# A = {ROOT / 'src'}", f"# B = {ROOT / 'src'}"]
    files = [ln.split()[0] for ln in lines[2:-1]]
    # 12 spectra, 8 analyzer and 8 RQWP maps with their 16 reports, 2
    # reports in 2.7 meV bins, the Lorentzian 4 spectra, 2 maps and 2
    # reports, g2 and the roundtrip report
    assert len(files) == 56 and "g2.csv" in files
    assert {"roundtrip.csv", "report-rqwp-weak_coupling-6K-poisson.csv",
            "report-analyzer-strong_coupling-300K-poisson-2.7meV.csv",
            "spectrum-lorentzian-strong_coupling-0K.csv",
            "report-lorentzian-weak_coupling-300K.csv"} <= set(files)
    assert all(ln.endswith("  identical") for ln in lines[2:-1])
    assert lines[-1] == "# 56 of 56 files identical"


def test_differing_rows_are_counted_against_the_column_peak(tmp_path):
    tool = _tool()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("# x = 1\nenergy_ev,intensity\n1.0,2.0\n1.1,4.0\n1.2,1.0\n")
    b.write_text("# x = 1\nenergy_ev,intensity\n1.0,2.0\n1.1,4.0\n1.2,1.2\n")
    assert tool.compare(a, a) == "identical"
    assert tool.compare(a, b) == ("differs  rows 1/3  max 5.00e-02 of peak, "
                                  "2.00e-01 absolute (intensity)  absolute "
                                  "by column: energy_ev 0.00e+00, "
                                  "intensity 2.00e-01")
    b.write_text("# x = 1\nenergy_ev,intensity\n1.0,2.0\n")
    assert tool.compare(a, b).startswith("differs  columns or row count")


def test_nan_to_number_and_text_columns_are_reported(tmp_path):
    tool = _tool()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("energy_ev,psi_deg\n1.0,nan\n1.1,5.0\n")
    b.write_text("energy_ev,psi_deg\n1.0,3.0\n1.1,5.0\n")
    assert tool.compare(a, b) == ("differs  rows 1/2  max 0.00e+00 of peak, "
                                  "0.00e+00 absolute (energy_ev)  "
                                  "NaN <-> number: psi_deg  absolute by "
                                  "column: energy_ev 0.00e+00, psi_deg "
                                  "0.00e+00")
    # the numeric columns of a text table are compared; text ones skipped
    a.write_text("case,metric,value,pass\nmap,sweep,1.5,PASS\n")
    b.write_text("case,metric,value,pass\nmap,sweep,1.6,FAIL\n")
    assert tool.compare(a, b) == ("differs  rows 1/1  max 6.67e-02 of peak, "
                                  "1.00e-01 absolute (value)  absolute by "
                                  "column: value 1.00e-01")
    b.write_text("case,metric,value,pass\nmap,area,1.5,PASS\n")
    assert tool.compare(a, b) == ("differs  rows 1/1  max 0.00e+00 of peak, "
                                  "0.00e+00 absolute (value)  absolute by "
                                  "column: value 0.00e+00")


def test_a_tree_without_the_package_is_an_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        _tool().main(["--src", str(ROOT)])
    capsys.readouterr()
    assert _tool().main(["--src", str(ROOT), "--src", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path} holds no vibropol "
                                       "package\n")
