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


def load_script(name, monkeypatch):
    """The script ``name`` imported as a module; ``sys.path`` is restored after the test."""
    path = os.path.join(SCRIPTS, name)
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ on import
    spec.loader.exec_module(script)
    return script


def test_diagnostics_script_draws_and_scores_calibration_once(tmp_path, monkeypatch):
    # one fit hands its scored calibration set to the PIT driver
    script = load_script("run_diagnostics.py", monkeypatch)
    n_cal = 4000
    argv = [script.__file__, "--out", str(tmp_path), "--calibration", str(n_cal), "--evaluation", "2000"]
    monkeypatch.setattr(sys, "argv", argv)
    counter = PassCounter(monkeypatch)
    with pytest.warns(UserWarning):  # the invariance cells are too sparse at this size
        assert script.main() == 0
    assert counter.draws[harness.STREAM_CALIBRATION] == 1
    assert counter.scored[harness.STREAM_CALIBRATION] == n_cal


# The last line of a perfbench/run.py run, as it prints it.
RESULT_LINE = (
    '{"correct": true, "attempted": 4063, "failed": 0, "metrics": {"setup_s": {"value": 0.11, "unit": "s"}, '
    '"peak_rss_mb": {"value": 156.0, "unit": "MiB"}}}'
)


def test_bench_folds_result_lines_into_medians(monkeypatch):
    bench = load_script("bench.py", monkeypatch)

    def line(setup_s, **changes):
        result = json.loads(RESULT_LINE)
        result["metrics"]["setup_s"]["value"] = setup_s
        return {**result, **changes}

    traced = {
        "correct": True, "attempted": 900, "failed": 0,
        "metrics": {"rejection.fit_surface.self_s": {"value": 0.02, "unit": "s"},
                    "rejection.cell_index.points": {"value": 1.35e6, "unit": "count"}},
    }
    runs = [
        ("analytic-readme", 0, 1, line(0.12)),
        ("analytic-readme", 1, 1, traced),
        ("analytic-readme", 0, 2, line(0.10, correct=False, failed=3)),
        ("analytic-readme", 0, 3, line(0.09)),
        ("analytic-naps-only", 0, 1, line(0.2)),
    ]
    env = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.16.0"}
    folded = bench.fold(runs, env, {"seconds": 50})
    assert folded["environment"] == env and folded["settings"] == {"seconds": 50}
    assert list(folded["workloads"]) == ["analytic-readme", "analytic-naps-only"]
    readme = folded["workloads"]["analytic-readme"]
    assert readme["end_to_end"]["setup_s"] == {"median": 0.10, "unit": "s", "n": 3, "values": [0.12, 0.10, 0.09]}
    assert readme["end_to_end"]["peak_rss_mb"]["median"] == 156.0
    assert readme["per_layer"]["rejection.cell_index.points"] == {
        "median": 1.35e6, "unit": "count", "n": 1, "values": [1.35e6]
    }
    assert [(r["trace"], r["seed"], r["correct"], r["failed"]) for r in readme["runs"]] == [
        (0, 1, True, 0), (1, 1, True, 0), (0, 2, False, 3), (0, 3, True, 0)
    ]
    assert "per_layer" not in folded["workloads"]["analytic-naps-only"]

