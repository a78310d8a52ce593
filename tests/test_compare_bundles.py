"""The bundle comparison tool: verdicts per file, deviations per column."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_bundles.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_bundles", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_pair(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_compare_reports_identical_files_and_column_deviations(tmp_path, capsys):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    table = "# label = x\n# t n_excited status\n0.0 2.0 ok\n1.0 {} ok\n"
    for root, value in ((parent, "1.0"), (change, "1.0000000001")):
        write_pair(root, "run/trace.csv", table.format(value))
        write_pair(root, "run/config.json", json.dumps({"rows": 2}))
        write_pair(root, "run/analysis.json", json.dumps({"rate": float(value)}))
    write_pair(change, "run/extra.txt", "new\n")

    assert tool.compare_dirs(parent, change) == 3
    out = capsys.readouterr().out.splitlines()
    assert "run/config.json: identical" in out
    assert "run/extra.txt: only in change" in out
    assert [line for line in out if line.startswith("run/trace.csv")] == [
        "run/trace.csv: column n_excited: max abs 1e-10, max rel 5e-11"]
    assert "run/analysis.json: rate: max abs 1e-10, max rel 1e-10" in out
    assert out[-1] == "4 files, 1 identical, 3 differ"


def test_relative_deviation_is_against_the_column_scale(tmp_path):
    """An entry near zero does not read large: a 1e-9 shift of a 1e-9 entry in
    a column reaching 0.5 is 2e-9 relative, not 0.5."""
    tool = load_tool()
    table = "# t residual\n0.0 0.5\n1.0 {}\n"
    write_pair(tmp_path, "a/fit_curve.csv", table.format("1e-9"))
    write_pair(tmp_path, "b/fit_curve.csv", table.format("2e-9"))
    assert tool.file_deviations(tmp_path / "a/fit_curve.csv",
                                tmp_path / "b/fit_curve.csv") == [
        "column residual: max abs 1e-09, max rel 2e-09"]
