"""The benchmark's traced run patches program names from outside the package.

``perfbench/tracing.py`` looks names up with ``inspect.getattr_static``; a
renamed or deleted name makes the traced benchmark run crash. Installing and
removing its tracer here turns that into a test failure.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import naps
from naps.rejection import NuBinning, RejectionSurface

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
        (naps.cutoffs, "cutoff_for_region"),
        (naps.nuisance.FullSpaceProvider, "region"),
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


def test_tracer_counts_cutoffs_and_saturation():
    # label 0's fitted maximum (0.02) is below alpha, so its inversion saturates
    binning = NuBinning.equal_width(1.0, 10.0, 2)
    values = np.empty((2, binning.n_cells, 3))
    values[0] = [0.0, 0.01, 0.02]
    values[1] = [0.0, 0.5, 1.0]
    surface = RejectionSurface("hand", binning, np.array([0.5, 1.0, 2.0]), values)
    model = naps.AnalyticMarginalClassifier(naps.analytic_config(0.5, naps.uniform_prior()))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, naps)
        provider = naps.FullSpaceProvider(space=naps.genmodel.ANALYTIC_SPACE)
        clf = naps.NapsSetClassifier(
            model=model, surfaces={0: surface, 1: surface}, providers={0: provider, 1: provider}
        )
        c0, c1 = clf.cutoff_table(0.1)
        clf.cutoff_table(0.1)  # looked up, not inverted again
    finally:
        tracer.unpatch()
    assert c0.saturated and not c1.saturated
    assert tracer.counts["cutoffs.saturated"] == 1
    assert tracer.counts["cutoffs.cutoff_for_region.calls"] == 2
    assert tracer.counts["nuisance.region.calls"] == 2
