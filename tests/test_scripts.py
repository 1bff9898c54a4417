"""The benchmark helper under ``scripts/`` folds perfbench result lines into medians."""

import importlib.util
import json
import os
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name, monkeypatch):
    """The script ``name`` imported as a module; ``sys.path`` is restored after the test."""
    path = os.path.join(SCRIPTS, name)
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ on import
    spec.loader.exec_module(script)
    return script


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

