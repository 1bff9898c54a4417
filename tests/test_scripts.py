"""Smoke tests: each experiment script runs at tiny sizes and writes its tables."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest
from test_harness import PassCounter

from naps import harness

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")

CASES = {
    "run_diagnostics.py": (
        ["--calibration", "4000", "--evaluation", "2000"],
        {"pit.json", "invariance.json"},
    ),
    "run_gamma_sweep.py": (["--evaluation", "2000", "--grid-size", "5"], {"gamma_sweep.json"}),
    "run_synthetic_benchmark.py": (
        ["--calibration", "4000", "--evaluation", "2000", "--grid", "50", "--nu-bins", "5"],
        {"report_no_gls.json", "report_no_gls_long.csv", "report_gls.json", "report_gls_long.csv"},
    ),
}


def run_script(name, out, extra):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), "--out", str(out), *extra],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs_and_writes_its_tables(name, tmp_path):
    extra, files = CASES[name]
    out = tmp_path / "out"
    proc = run_script(name, out, extra)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(os.listdir(out)) == files
    for path in files:
        if path.endswith(".json"):
            json.loads((out / path).read_text())
    if name == "run_diagnostics.py":
        # at this size every invariance cell is too sparse to compare
        invariance = json.loads((out / "invariance.json").read_text())
        assert invariance["clean"]["max_sup_distance"] is None
        assert "max sup-distance: n/a" in proc.stdout
    elif name == "run_gamma_sweep.py":
        assert len(json.loads((out / "gamma_sweep.json").read_text())["rows"]) == 1 + 5
    else:
        report = json.loads((out / "report_gls.json").read_text())
        assert report["n_evaluation"] == 2000
        assert len(report["methods"]) == 6


def test_diagnostics_script_draws_and_scores_calibration_once(tmp_path, monkeypatch):
    # one fit hands its scored calibration set to the PIT driver
    path = os.path.join(SCRIPTS, "run_diagnostics.py")
    spec = importlib.util.spec_from_file_location("run_diagnostics", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ on import
    spec.loader.exec_module(script)
    n_cal = 4000
    argv = [path, "--out", str(tmp_path), "--calibration", str(n_cal), "--evaluation", "2000"]
    monkeypatch.setattr(sys, "argv", argv)
    counter = PassCounter(monkeypatch)
    with pytest.warns(UserWarning):  # the invariance cells are too sparse at this size
        assert script.main() == 0
    assert counter.draws[harness.STREAM_CALIBRATION] == 1
    assert counter.scored[harness.STREAM_CALIBRATION] == n_cal
