"""The benchmark's traced run patches program names from outside the package.

``perfbench/tracing.py`` looks names up with ``inspect.getattr_static``; a
renamed or deleted name makes the traced benchmark run crash. Installing and
removing its tracer here turns that into a test failure.
"""

import importlib.util
import inspect
from pathlib import Path

import naps

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_unpatches():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    owners = {
        (naps.harness, "cutoff_for_region"),
        (naps.prediction_sets, "bayes_factor_with_flags"),
        (naps.prediction_sets.NapsSetClassifier, "predict_batch"),
        (naps.nuisance.OracleQuantileProvider, "region"),
    }
    before = {key: inspect.getattr_static(*key) for key in owners}
    try:
        tracing.install(tracer, naps)
        for key in owners:
            assert inspect.getattr_static(*key) is not before[key]
    finally:
        tracer.unpatch()
    for key in owners:
        assert inspect.getattr_static(*key) is before[key]
    assert tracer.counts["harness.naps_cutoffs.calls"] == 0
