"""Outside-in tracing of the naps modules for the benchmark's traced run.

The tracer wraps public functions of ``src/naps`` from here, without
changing any program file. A function is patched under every name it is
looked up by at call time: ``harness`` imports ``fit_surface`` by name, so
both ``rejection.fit_surface`` and ``harness.fit_surface`` are replaced.

Each span holds name, start, end, parent and run id; spans stay in memory
and are written out once the run ends. A span's self time is its duration
minus the time its child spans cover. Functions that run once per
evaluation point are counted, not spanned, so that tracing stays cheap.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._spanned: set[str] = set()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, run_id = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_, run_id)

    @contextmanager
    def run(self, run_id: str):
        """Root span of one top-level benchmark operation; children share its id."""
        previous, self.run_id = self.run_id, run_id
        try:
            with self.span(run_id.split("#")[0]):
                yield
        finally:
            self.run_id = previous

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None, spanned: bool = True, error=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records ``name``.

        ``count(args, kwargs, result)`` may add counters after each call;
        ``error = (exception type, counter)`` counts that exception as it
        passes through. Static and class methods keep their descriptor type.
        """
        # Every counter and span this wrapper keeps is reported, even if it stays at zero.
        self.counts[name + ".calls"] += 0
        if error is not None:
            self.counts[error[1]] += 0
        if spanned:
            self._spanned.add(name)
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        tracer = self

        def call(args, kwargs):
            if error is None:
                return func(*args, **kwargs)
            try:
                return func(*args, **kwargs)
            except error[0]:
                tracer.counts[error[1]] += 1
                raise

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if spanned:
                with tracer.span(name):
                    result = call(args, kwargs)
            else:
                result = call(args, kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        elif isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(self._spanned, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def install(tracer: Tracer, naps) -> None:
    """Wrap every traced entry point of the naps package."""
    gm, clf, rej, nui, cut, ps, har = (
        naps.genmodel, naps.classifier, naps.rejection, naps.nuisance,
        naps.cutoffs, naps.prediction_sets, naps.harness,
    )
    counts = tracer.counts

    for key in (
        "genmodel.sample_dataset.rows", "genmodel.dataset_save.bytes", "classifier.posterior1.points",
        "rejection.cell_index.points", "rejection.surface_io.bytes", "harness.report_write.bytes",
        "harness.pipeline_io.bytes",
    ):
        counts[key] += 0

    def rows(args, kwargs, result):
        counts["genmodel.sample_dataset.rows"] += len(result)

    def saved_bytes(key, path_arg=1):
        def hook(args, kwargs, result):
            counts[key] += _file_bytes(args[path_arg])
        return hook

    def posterior_points(args, kwargs, result):
        model, x = args[0], np.asarray(args[1])
        toy = getattr(getattr(model, "config", None), "scenario", None) == gm.SCENARIO_DISCRETE
        vector_dims = 1 if toy else 0
        counts["classifier.posterior1.points"] += 1 if x.ndim <= vector_dims else x.shape[0]

    def cell_points(args, kwargs, result):
        counts["rejection.cell_index.points"] += int(np.size(args[1]))

    def pipeline_bytes(args, kwargs, result):
        directory = args[1] if len(args) > 1 else args[0]
        for name in ("classifier.json", "surface_bf0.json", "surface_bf1.json"):
            counts["harness.pipeline_io.bytes"] += _file_bytes(os.path.join(directory, name))

    def region_seen(args, kwargs, result):
        tracer.distinct["nuisance.region"].add(result.cache_key())

    # Paths are args[1] of save/to_json methods and args[0] of the static loads.
    tracer.patch(gm, "sample_dataset", "genmodel.sample_dataset", rows)
    tracer.patch(gm.Dataset, "save", "genmodel.dataset_save", saved_bytes("genmodel.dataset_save.bytes"))
    for cls in (clf.AnalyticMarginalClassifier, clf.HistogramClassifier):
        tracer.patch(cls, "posterior1", "classifier.posterior1", posterior_points)
    for owner in (clf, har):
        tracer.patch(owner, "bayes_factor_from_posterior", "classifier.bayes_factor")
        tracer.patch(owner, "fit_histogram_classifier", "classifier.fit_histogram")
    # The classifier build around the fit (for the analytic classifier, only
    # its constructor) counts as the same layer, so it is measured on every
    # workload; its training-set sampling is a child span of its own.
    tracer.patch(har, "build_model", "classifier.fit_histogram")
    for owner in (clf, ps):
        tracer.patch(owner, "bayes_factor_with_flags", "classifier.bayes_factor")
    for owner in (rej, har):
        tracer.patch(owner, "fit_surface", "rejection.fit_surface")
        tracer.patch(owner, "cutoff_grid_from_values", "rejection.cutoff_grid")
        tracer.patch(owner, "pit_diagnostics", "rejection.pit_diagnostics")
    tracer.patch(rej.NuBinning, "cell_index", "rejection.cell_index", cell_points)
    tracer.patch(rej.RejectionSurface, "save", "rejection.surface_io", saved_bytes("rejection.surface_io.bytes"))
    tracer.patch(
        rej.RejectionSurface, "load", "rejection.surface_io", saved_bytes("rejection.surface_io.bytes", 0)
    )
    for cls in (nui.FullSpaceProvider, nui.OracleQuantileProvider):
        tracer.patch(cls, "region", "nuisance.region", region_seen, spanned=False)

    for owner in (cut, har, ps):
        tracer.patch(
            owner, "cutoff_for_region", "cutoffs.cutoff_for_region",
            error=(naps.SaturationError, "cutoffs.saturated"),
        )
    tracer.patch(ps.NapsSetClassifier, "predict", "prediction_sets.predict")
    tracer.patch(ps.NapsSetClassifier, "predict_batch", "prediction_sets.predict_batch")
    for cls in (ps.StandardSetsBaseline, ps.ClassConditionalBaseline, ps.PlugInConditionalBaseline):
        tracer.patch(cls, "fit", "prediction_sets.baseline_fit")
    tracer.patch(har, "compute_metrics", "harness.compute_metrics")
    tracer.patch(har, "naps_cutoffs_for_alpha", "harness.naps_cutoffs")
    tracer.patch(har, "fit_pipeline", "harness.fit_pipeline")
    tracer.patch(har, "run_experiment", "harness.run_experiment")
    tracer.patch(har.MetricsReport, "to_json", "harness.report_write", saved_bytes("harness.report_write.bytes"))
    tracer.patch(
        har.MetricsReport, "write_long_table", "harness.report_write", saved_bytes("harness.report_write.bytes")
    )
    tracer.patch(har.Pipeline, "save", "harness.pipeline_io", pipeline_bytes)
    tracer.patch(har.Pipeline, "load", "harness.pipeline_io", pipeline_bytes)
