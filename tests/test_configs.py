"""Each experiment config under ``configs/`` runs through the CLI at tiny sizes and writes its tables."""

import contextlib
import json
import os

import pytest
from test_harness import PassCounter

from naps import cli, harness

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# config: (size changes, commands, files written)
CASES = {
    "diagnostics.json": (
        {"n_calibration": 4000, "n_evaluation": 2000},
        [["diagnose"], ["invariance"]],
        {"pit.json", "pit_bins.csv", "invariance.json"},
    ),
    "gamma_sweep.json": (
        {"n_evaluation": 2000},
        [["sweep-gamma", "--gamma-grid", "1e-4:1e-2:5"]],
        {"gamma_sweep.json", "gamma_sweep.csv"},
    ),
    "synthetic_no_gls.json": (
        {"n_calibration": 4000, "n_evaluation": 2000, "cutoff_grid_size": 50, "nu_bins": 5},
        [["evaluate"]],
        {"report.json", "report_long.csv"},
    ),
    "synthetic_gls.json": (
        {"n_calibration": 4000, "n_evaluation": 2000, "cutoff_grid_size": 50, "nu_bins": 5},
        [["evaluate"]],
        {"report.json", "report_long.csv"},
    ),
}


def shrunk_config(name, changes, tmp_path):
    """A copy of ``configs/<name>`` with ``changes`` applied, written under ``tmp_path``."""
    with open(os.path.join(CONFIGS, name)) as fh:
        cfg = json.load(fh)
    path = tmp_path / name
    path.write_text(json.dumps({**cfg, **changes}))
    return str(path)


def test_every_config_has_a_case():
    assert set(os.listdir(CONFIGS)) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_runs_and_writes_its_tables(name, tmp_path):
    changes, commands, written = CASES[name]
    path, out = shrunk_config(name, changes, tmp_path), tmp_path / "out"
    for argv in commands:
        # at this size every invariance cell is too sparse to compare, which the check warns of
        sparse = pytest.warns(UserWarning, match="cells below") if argv[0] == "invariance" else contextlib.nullcontext()
        with sparse:
            assert cli.main([argv[0], "--config", path, "--out", str(out), *argv[1:]]) == 0
    assert set(os.listdir(out)) == written
    tables = {f: json.loads((out / f).read_text()) for f in written if f.endswith(".json")}
    if name == "diagnostics.json":
        assert tables["invariance.json"]["clean"]["max_sup_distance"] is None
        assert tables["invariance.json"]["perturbed"]["perturb_scale"] == 1.5
    elif name == "gamma_sweep.json":
        rows = tables["gamma_sweep.json"]["rows"]
        assert len(rows) == 1 + 5 and rows[0]["gamma"] == 0.0  # the full-space reference leads the grid
    else:
        assert tables["report.json"]["n_evaluation"] == 2000
        assert len(tables["report.json"]["methods"]) == 6


def test_diagnose_draws_and_scores_calibration_once(tmp_path, monkeypatch):
    # one fit hands its calibration posterior to the PIT driver
    n_cal = 4000
    path = shrunk_config("diagnostics.json", {"n_calibration": n_cal, "n_evaluation": 2000}, tmp_path)
    counter = PassCounter(monkeypatch)
    assert cli.main(["diagnose", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert counter.draws[harness.STREAM_CALIBRATION] == 1
    assert counter.scored[harness.STREAM_CALIBRATION] == n_cal
