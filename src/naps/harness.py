"""End-to-end experiment runner.

Generates train/calibration/evaluation data, fits the classifier and the
per-label rejection surfaces once (``fit_pipeline``, from the calibration
posterior, ranked by ``_ranked`` and kept for the baselines and the PIT
control), evaluates every configured set-valued method over a grid of
miscoverage levels, and aggregates coverage, power, precision and ambiguity
tables with binomial standard errors. Also hosts the gamma power sweep and
two checks of a pipeline that they take, never fit: the rejection-probability
invariance check and the PIT diagnostic driver used by the CLI.

Everything is deterministic given the experiment seed: sampling uses
counter-based streams keyed off fixed role offsets, and reports serialize
with stable key order and full float precision.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import reprlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import files, genmodel
from .classifier import (
    AnalyticMarginalClassifier,
    ScoredDataset,
    fit_histogram_classifier,
    label_bayes_factors,
    load_classifier,
    save_classifier,
    score_dataset,
)
from .classifier import bayes_factor_from_posterior  # noqa: F401  (patched by perfbench/tracing.py)
from .cutoffs import analytic_oracle_cutoffs
from .cutoffs import cutoff_for_region  # noqa: F401  (patched by perfbench/tracing.py)
from .errors import ConfigError
from .genmodel import SCENARIO_ANALYTIC, Dataset, GenerativeConfig, PriorSpec
from .nuisance import FullSpaceProvider, OracleQuantileProvider
from .prediction_sets import (
    ClassConditionalBaseline,
    NapsSetClassifier,
    PlugInConditionalBaseline,
    StandardSetsBaseline,
    bayes_point_batch,
    class_scores,
)
from .rejection import (
    NuBinning,
    RejectionSurface,
    cell_cdfs,
    cutoff_grid_from_values,
    fit_surface,
    pit_diagnostics,
)

REPORT_SCHEMA_VERSION = 1

# Stream-role offsets; keep sampling independent across pipeline stages.
STREAM_TRAIN = 1 << 8
STREAM_CALIBRATION = 2 << 8
STREAM_EVALUATION = 3 << 8
STREAM_TARGET_CHECK = 4 << 8
STREAM_SWEEP = 5 << 8
STREAM_DIAGNOSE = 6 << 8
STREAM_PERTURB = 7 << 8
STREAM_MC_BASE = 1 << 16

METHOD_KINDS = ("naps", "standard", "class-conditional", "plug-in", "bayes-point")


@dataclass(frozen=True)
class GammaRule:
    """gamma as a fixed value or a fixed multiple of alpha."""

    kind: str = "fixed"  # "fixed" | "alpha-multiple"
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "alpha-multiple"):
            raise ConfigError(f"unknown gamma rule {self.kind!r}")
        if not 0.0 <= self.value < math.inf:
            raise ConfigError(f"gamma rule value must be finite and nonnegative, got {self.value}")

    def gamma_for(self, alpha: float) -> float:
        g = self.value if self.kind == "fixed" else self.value * alpha
        if g >= alpha:
            raise ConfigError(f"gamma rule yields gamma={g} >= alpha={alpha}")
        return g


@dataclass(frozen=True)
class MethodSpec:
    """One set-valued method of a report; its ``name`` defaults to its ``kind``."""

    kind: str
    name: str | None = None
    gamma_rule: GammaRule = field(default_factory=GammaRule)
    provider: str = "full-space"  # "full-space" | "oracle-quantile"
    costs: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.name is None:
            object.__setattr__(self, "name", self.kind)
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if self.provider not in ("full-space", "oracle-quantile"):
            raise ConfigError(f"unknown provider {self.provider!r}")
        if len(self.costs) != 2 or not all(0.0 < c < math.inf for c in self.costs):
            raise ConfigError(f"costs must be two finite positive numbers, got {list(self.costs)!r}")


def default_methods() -> tuple[MethodSpec, ...]:
    return (
        MethodSpec(name="naps", kind="naps"),
        MethodSpec(
            name="naps-oracle",
            kind="naps",
            gamma_rule=GammaRule(kind="alpha-multiple", value=0.01),
            provider="oracle-quantile",
        ),
        MethodSpec(name="standard", kind="standard"),
        MethodSpec(name="class-conditional", kind="class-conditional"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = SCENARIO_ANALYTIC
    class1_probability: float = 0.5
    train_prior: PriorSpec = None
    target_prior: PriorSpec = None
    n_train: int = 100_000
    n_calibration: int = 200_000
    n_evaluation: int = 50_000
    alphas: tuple[float, ...] = (0.05, 0.1, 0.2)
    methods: tuple[MethodSpec, ...] = field(default_factory=default_methods)
    nu_bins: int = 20
    nu_bin_scheme: str = "equal"  # "equal" | "geometric"
    report_nu_bins: int = 10
    cutoff_grid_size: int = 200
    classifier: str = "analytic-marginal"  # or "histogram"
    histogram_bins: int = 64
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        if self.train_prior is None or self.target_prior is None:
            raise ConfigError("train_prior and target_prior are required")
        if not 0.0 < self.class1_probability < 1.0:
            raise ConfigError("class1_probability must lie strictly inside (0, 1): both labels need a Bayes factor")
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ConfigError("alphas must lie strictly inside (0, 1)")
        if len(set(map(float, self.alphas))) != len(self.alphas):
            raise ConfigError(f"alphas must be distinct, got {list(self.alphas)}")
        sizes = ("n_train", "n_calibration", "n_evaluation", "nu_bins", "report_nu_bins", "histogram_bins")
        for key, least in [(key, 1) for key in sizes] + [("cutoff_grid_size", 2)]:
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if self.nu_bin_scheme not in ("equal", "geometric"):
            raise ConfigError(f"unknown binning scheme {self.nu_bin_scheme!r}")
        if self.classifier not in ("analytic-marginal", "histogram"):
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        names = [m.name for m in self.methods]
        if not names or len(set(names)) != len(names):
            raise ConfigError(f"methods must be at least one, with unique names, got {names}")
        # Gamma rules must stay feasible across the whole alpha grid.
        for m in self.methods:
            if m.kind == "naps":
                for a in self.alphas:
                    m.gamma_rule.gamma_for(a)

    def generative(self, which: str) -> GenerativeConfig:
        prior = self.train_prior if which == "train" else self.target_prior
        return GenerativeConfig(
            scenario=self.scenario,
            class1_probability=self.class1_probability,
            nuisance_prior_class0=prior,
            nuisance_prior_class1=prior,
        )

    def train_set(self) -> Dataset:
        return genmodel.sample_dataset(self.generative("train"), self.n_train, self.seed, stream_base=STREAM_TRAIN)

    def calibration_set(self) -> Dataset:
        return genmodel.sample_dataset(
            self.generative("train"), self.n_calibration, self.seed, stream_base=STREAM_CALIBRATION
        )

    def evaluation_set(self) -> Dataset:
        return genmodel.sample_dataset(
            self.generative("target"), self.n_evaluation, self.seed, stream_base=STREAM_EVALUATION
        )

    def binning(self) -> NuBinning:
        return NuBinning.for_space(
            self.train_prior.support, self.nu_bins, scheme=self.nu_bin_scheme
        )

    def report_binning(self) -> NuBinning:
        return NuBinning.for_space(self.train_prior.support, self.report_nu_bins)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return files.parse(ExperimentConfig, d)

    @staticmethod
    def from_json_file(path) -> "ExperimentConfig":
        return files.read_json(path, ExperimentConfig.from_dict, "configuration")


# ---------------------------------------------------------------------------
# Fitted pipeline: classifier plus per-label rejection surfaces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """The classifier and both labels' rejection surfaces, fitted once and reused.

    ``calibration_posterior`` is the ``(p1, y)`` of the calibration set the
    surfaces were fitted on, the posterior P(Y=1 | x) and the label per
    sample, sorted by ascending ``p1``: what the surfaces, two baselines and
    the PIT control are fitted from. The standard and class-conditional
    baselines read each label's ascending scores straight off that order
    (``class_scores``, once per run for both) and sort nothing.
    ``fit_pipeline`` keeps it in memory; it is never saved, so a loaded or
    hand-built pipeline has ``None`` there and ranks its calibration set,
    redrawn, into the same record on demand.
    """

    model: object
    surfaces: dict[int, RejectionSurface]
    calibration_posterior: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    @property
    def binning(self) -> NuBinning:
        return self.surfaces[0].binning

    def save(self, out_dir: str) -> None:
        save_classifier(self.model, os.path.join(out_dir, "classifier.json"))
        for y in (0, 1):
            self.surfaces[y].save(os.path.join(out_dir, f"surface_bf{y}.json"))

    @staticmethod
    def load(model_dir: str, *, config: ExperimentConfig) -> "Pipeline":
        """The pipeline saved in ``model_dir``, refused unless ``fit_pipeline`` would fit it under ``config``.

        Checked in order: the class prior; each surface's statistic, binning
        and ``SurfaceMetadata``, label 0's first; the classifier's kind and
        training distribution, and a histogram's bin count and ``n_train``.
        A refusal is a ``ConfigError`` naming the file and each differing
        field, with its fitted and its configured value.
        """
        path = os.path.join(model_dir, "classifier.json")
        model = load_classifier(path)
        if not 0.0 < model.class1_prior < 1.0:
            raise ConfigError(f"malformed fitted artifact {path}: class prior {model.class1_prior} not in (0, 1)")
        surfaces = {}
        for y in (0, 1):
            path = os.path.join(model_dir, f"surface_bf{y}.json")
            surfaces[y] = RejectionSurface.load(path)
            fit = surfaces[y].metadata  # None in a hand-built surface, which no configuration fits
            _refuse_unless_fitted_under(path, {
                "statistic_id": (surfaces[y].statistic_id, f"bayes-factor-{y}"),
                "binning": (surfaces[y].binning, config.binning()),
                "n_calibration": (getattr(fit, "n_calibration", None), config.n_calibration),
                "grid_size": (getattr(fit, "grid_size", None), config.cutoff_grid_size),
                "seed": (getattr(fit, "seed", None), config.seed),
            })
        fields = {"kind": (model.kind, config.classifier)}
        fields["training distribution"] = (model.config, config.generative("train"))
        if model.kind == config.classifier == "histogram":
            fields["histogram bins"] = (len(model.bin_posterior), config.histogram_bins)
            fields["n_train"] = (model.n_train, config.n_train)
        _refuse_unless_fitted_under(os.path.join(model_dir, "classifier.json"), fields)
        return Pipeline(model=model, surfaces=surfaces)


def _refuse_unless_fitted_under(path: str, fields: dict) -> None:
    """Refuse the artifact ``path``, naming each field whose ``(fitted, configured)`` values differ in JSON's types."""
    shown = {name: tuple(map(files.jsonable, pair)) for name, pair in fields.items()}
    differ = [f"{name} is {reprlib.repr(a)}, configured {reprlib.repr(b)}" for name, (a, b) in shown.items() if a != b]
    if differ:
        raise ConfigError(f"fitted artifact {path} does not match the configuration: {'; '.join(differ)}")


def build_model(config: ExperimentConfig):
    if config.classifier == "analytic-marginal":
        return AnalyticMarginalClassifier(config.generative("train"))
    return fit_histogram_classifier(config.train_set(), config.histogram_bins, config.generative("train"))


def fit_pipeline(config: ExperimentConfig) -> Pipeline:
    """Fit the classifier and both Bayes-factor rejection surfaces."""
    return _fit(config, config.calibration_set())


def _fit(config: ExperimentConfig, calibration: Dataset) -> Pipeline:
    """``fit_pipeline`` on its calibration set, drawn by the caller and ranked by ``_ranked``."""
    model = build_model(config)
    p1, labels, order = _ranked(model, calibration)
    binning = config.binning()
    code = binning.cell_code(calibration.y, calibration.nu)[order]
    surfaces = _fit_surfaces(config, binning, label_bayes_factors(p1, model.class1_prior), code)
    return Pipeline(model=model, surfaces=surfaces, calibration_posterior=(p1, labels))


def _ranked(model, data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``posterior1`` pass and one argsort: ``data``'s ascending ``p1``, its labels in that order, and the order."""
    p1 = model.posterior1(data.x)
    order = np.argsort(p1)
    return p1[order], data.y[order], order


def _fit_surfaces(config: ExperimentConfig, binning: NuBinning, statistics: dict, code) -> dict[int, RejectionSurface]:
    """The Bayes-factor rejection surface of each label in ``statistics``, ``{y: surface}``, from one ``fit_surface``.

    ``statistics`` holds some labels of ``label_bayes_factors`` of an
    ascending calibration posterior, and ``code`` the calibration rows'
    ``binning.cell_code`` in its order. Label 1's statistic is built from
    ``p1`` and label 0's from ``1 - p1`` by monotone rounded operations,
    elementwise, so label 1's comes out ascending and label 0's descending,
    up to ties, which counting does not see. Each label's grid reads its
    statistic in ascending order, label 0's reversed.
    """
    values = {y: statistic for y, (statistic, _) in statistics.items()}
    grids = {y: cutoff_grid_from_values(tau[:: 2 * y - 1], config.cutoff_grid_size) for y, tau in values.items()}
    return fit_surface(code, values, grids, binning, "bayes-factor", config.seed, grid_size=config.cutoff_grid_size)


def naps_cutoffs_for_alpha(
    pipeline: Pipeline, config: ExperimentConfig, spec: MethodSpec, alpha: float
) -> NapsSetClassifier:
    """The NAPS classifier of one method at one alpha.

    The method's provider carries the gamma its rule gives at alpha, also
    the full-space provider, which is valid at any gamma; the classifier
    resolves the cutoffs.
    """
    gamma = spec.gamma_rule.gamma_for(alpha)
    if spec.provider == "oracle-quantile":
        provider = OracleQuantileProvider(gamma=gamma, distribution=config.target_prior)
    else:
        provider = FullSpaceProvider(space=config.train_prior.support, gamma=gamma)
    return NapsSetClassifier(
        model=pipeline.model, surfaces=pipeline.surfaces, providers={0: provider, 1: provider}
    )


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _rates(numer: np.ndarray, denom: np.ndarray) -> tuple[list, list]:
    """Rates ``numer / denom`` and their binomial SEs as (nested) lists, ``None`` where ``denom`` is 0.

    The int64 counts stay below 2**53, so they convert to float exactly, and
    the correctly rounded division and ``sqrt`` give each float the bits of
    Python's ``numer / denom`` and ``math.sqrt``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = numer / denom
        se = np.sqrt(p * (1.0 - p) / denom)
    empty = denom == 0
    return np.where(empty, None, p).tolist(), np.where(empty, None, se).tolist()


@dataclass(frozen=True)
class ReportRows:
    """An evaluation set as ``compute_metrics`` counts it, built once and shared by every (method, alpha).

    ``code`` holds each row's (report cell, label) part of the count code,
    ``(cell * 2 + y) * 4``, which ``compute_metrics`` completes with the
    row's two inclusions; it has the narrowest unsigned type that holds
    every code, so each count reads as few bytes as it can. ``nu_bins``
    holds each report cell's ``nu_bin`` record.
    """

    code: np.ndarray
    nu_bins: tuple[dict, ...]


def report_rows(y, cells, report_binning: NuBinning) -> ReportRows:
    """The ``ReportRows`` of labels ``y`` whose ``report_binning.cell_index`` is ``cells``."""
    code = (np.asarray(cells, dtype=np.intp) * 2 + np.asarray(y)) * 4
    code = code.astype(np.min_scalar_type(8 * report_binning.n_cells - 1))
    if report_binning.is_continuous:
        bounds = (report_binning.cell_bounds(cell) for cell in range(report_binning.n_cells))
        nu_bins = tuple({"index": cell, "lo": lo, "hi": hi} for cell, (lo, hi) in enumerate(bounds))
    else:
        nu_bins = tuple({"index": cell, "category": int(c)} for cell, c in enumerate(report_binning.categories))
    return ReportRows(code=code, nu_bins=nu_bins)


def compute_metrics(rows: ReportRows, include0, include1) -> dict:
    """Coverage/power/precision tables: marginal, per class, per (class, bin).

    One count over the code (cell, y, include0, include1), whose per-row
    (cell, y) part ``rows`` holds; every table is a sum over that count
    tensor. The segments (the marginal, each class, each (class, bin)) are
    stacked as ``t[segment, y, include0, include1]`` and their rates are
    derived in one vectorized pass.
    """
    m = len(rows.nu_bins)
    inclusions = np.asarray(include0, dtype=bool).view(np.uint8) << 1 | np.asarray(include1, dtype=bool).view(np.uint8)
    counts = np.bincount(rows.code + inclusions, minlength=8 * m).reshape(m, 2, 2, 2)
    total = counts.sum(axis=0)
    only = np.eye(2, dtype=counts.dtype)[:, :, None, None]  # only[y] keeps label y's counts

    single0, single1 = total[:, 1, 0], total[:, 0, 1]
    table = {
        "n": int(total.sum()),
        "empty": int(total[:, 0, 0].sum()),
        "single_0": int(single0.sum()),
        "single_1": int(single1.sum()),
        "both": int(total[:, 1, 1].sum()),
        "single_0_correct": int(single0[0]),
        "single_1_correct": int(single1[1]),
    }
    value, se = _rates(np.array([single0[0], single1[1]]), np.array([single0.sum(), single1.sum()]))
    precision = {str(c): {"value": value[c], "se": se[c], "n": table[f"single_{c}"]} for c in (0, 1)}

    # t[segment]: the marginal, each class, then each (class, bin), label 0's bins first
    t = np.concatenate([total[None], only * total, (only[:, None] * counts).reshape(2 * m, 2, 2, 2)])
    n = t.sum(axis=(1, 2, 3))
    with0, with1 = t[:, :, 1, :].sum(axis=2), t[:, :, :, 1].sum(axis=2)  # [segment, y]
    rate, se = _rates(
        np.stack([
            with0[:, 0] + with1[:, 1],  # covered
            n - with1[:, 0] - with0[:, 1],  # the other label excluded
            t[:, :, 1, 1].sum(axis=1),  # ambiguous
            t[:, :, 0, 0].sum(axis=1),  # empty
            with0.sum(axis=1) + with1.sum(axis=1),  # (k0 + k1) / n is exactly the mean of the 0/1/2 set sizes
        ]),
        n,
    )
    keys = ("n", "coverage", "coverage_se", "power", "power_se", "ambiguity_rate", "empty_rate", "mean_set_size")
    segments = [dict(zip(keys, row)) for row in zip(n.tolist(), rate[0], se[0], rate[1], se[1], *rate[2:])]
    for i, seg in enumerate(segments[3:]):
        seg["nu_bin"] = dict(rows.nu_bins[i % m])
    return {
        "marginal": segments[0],
        "precision": precision,
        "by_class": {"0": segments[1], "1": segments[2]},
        "counts": table,
        "by_class_nu_bin": {"0": segments[3 : 3 + m], "1": segments[3 + m :]},
    }


@dataclass
class MetricsReport:
    data: dict

    def method_alpha(self, method: str, alpha: float) -> dict:
        return self.data["methods"][method]["alphas"][_alpha_key(alpha)]

    def to_json(self, path) -> None:
        files.write_json(path, self.data)

    def write_long_table(self, path) -> None:
        """Plot-ready long format: method, alpha, segment, metric, value, se, n."""
        rows = []
        for method, mdata in sorted(self.data["methods"].items()):
            for akey, tables in sorted(mdata["alphas"].items()):
                segments = [("marginal", tables["marginal"])]
                segments += [(f"y={c}", tables["by_class"][c]) for c in ("0", "1")]
                for c in ("0", "1"):
                    for seg in tables["by_class_nu_bin"][c]:
                        label = f"y={c},bin={seg['nu_bin']['index']}"
                        segments.append((label, seg))
                for seg_name, seg in segments:
                    for metric in ("coverage", "power", "ambiguity_rate", "empty_rate", "mean_set_size"):
                        se = seg.get(metric + "_se")
                        rows.append((method, akey, seg_name, metric, seg.get(metric), se, seg["n"]))
                for c in ("0", "1"):
                    p = tables["precision"][c]
                    rows.append((method, akey, f"predicted={c}", "precision", p["value"], p["se"], p["n"]))
        header = ("method", "alpha", "segment", "metric", "value", "se", "n")
        files.write_table(path, header, None, [[row[i] for row in rows] for i in range(len(header))])


def _alpha_key(alpha: float) -> str:
    return repr(float(alpha))


def run_experiment(config: ExperimentConfig, pipeline: Pipeline | None = None) -> MetricsReport:
    """Run the full protocol and aggregate metrics per method and alpha.

    Passing a pre-fitted pipeline skips refitting entirely; results are
    bit-identical either way because evaluation data depend only on the
    seed, not on the fitting stage. Each dataset is drawn and scored at most
    once. The baselines are calibrated on the pipeline's own calibration
    set, the one its NAPS surfaces were fitted on: the standard and
    class-conditional ones from the ``calibration_posterior`` it keeps, and
    the plug-in one from the set redrawn, which it scores its own way. A
    pipeline loaded from disk ranks that set as the fit does, once, if a
    standard or class-conditional baseline needs it. The posterior is split
    by class once for both, and the metrics' per-row (cell, label) code is
    built once for every (method, alpha). Each NAPS method's provider
    carries the gamma its rule gives at alpha.
    """
    return _run_scored(config, pipeline)[0]


def _run_scored(
    config: ExperimentConfig, pipeline: Pipeline | None = None
) -> tuple[MetricsReport, Pipeline, ScoredDataset]:
    """The report together with the pipeline and the scored evaluation set it used."""
    calibration_set = functools.cache(config.calibration_set)  # drawn at most once
    if pipeline is None:
        pipeline = _fit(config, calibration_set())
    model = pipeline.model
    evaluation = score_dataset(model, config.evaluation_set())

    # One class split serves both baselines. A loaded pipeline keeps no posterior: its calibration set is
    # ranked here, as a fit ranks it, once.
    posterior = pipeline.calibration_posterior
    split = functools.cache(lambda: class_scores(*(posterior or _ranked(model, calibration_set())[:2])))
    baselines = {}  # each baseline's include_batch on the evaluation set, a function of alpha
    for spec in config.methods:
        if spec.kind == "plug-in":
            # plug-in scores the set its own way, so it is drawn but not scored
            plug_in = PlugInConditionalBaseline.fit(model, calibration_set(), pipeline.binning)
            baselines[spec.name] = functools.partial(plug_in.include_batch, model, evaluation.data.x)
        elif spec.kind in ("standard", "class-conditional"):
            baseline = (StandardSetsBaseline if spec.kind == "standard" else ClassConditionalBaseline)(*split())
            baselines[spec.name] = functools.partial(baseline.include_batch, evaluation.p1)

    report_binning = config.report_binning()
    rows = report_rows(evaluation.data.y, report_binning.cell_index(evaluation.data.nu), report_binning)
    methods_out: dict[str, dict] = {}
    for spec in config.methods:
        alphas_out = {}
        for alpha in config.alphas:
            extra: dict = {}
            if spec.kind == "naps":
                clf = naps_cutoffs_for_alpha(pipeline, config, spec, alpha)
                batch = clf.decide(evaluation.data.x, evaluation.statistics, alpha)
                include0, include1 = batch.include0, batch.include1
                table = clf.cutoff_table(alpha)
                # A saturated cutoff is -inf; strict JSON writes it as null.
                extra = {
                    "gamma": clf.providers[0].gamma,
                    "cutoff0": None if table[0].saturated else table[0].cutoff,
                    "cutoff1": None if table[1].saturated else table[1].cutoff,
                    "nuisance_regions": {str(y): files.jsonable(table[y].region) for y in (0, 1)},
                    "saturated_labels": [y for y in (0, 1) if table[y].saturated],
                }
            elif spec.name in baselines:
                include0, include1 = baselines[spec.name](alpha)
            else:  # bayes-point
                labels = bayes_point_batch(evaluation.p1, spec.costs)
                include0 = labels == 0
                include1 = labels == 1
            tables = compute_metrics(rows, include0, include1)
            tables.update(extra)
            alphas_out[_alpha_key(alpha)] = tables
        methods_out[spec.name] = {"kind": spec.kind, "alphas": alphas_out}

    config_echo = files.jsonable(config)
    config_echo.pop("output_dir", None)  # report content must not depend on its destination
    report = MetricsReport(
        data={
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": config_echo,
            "n_evaluation": len(evaluation.data),
            "methods": methods_out,
        }
    )
    return report, pipeline, evaluation


# ---------------------------------------------------------------------------
# Gamma power sweep.
# ---------------------------------------------------------------------------


def gamma_sweep(config: ExperimentConfig, alpha: float, gamma_grid) -> dict:
    """Closed-form class-0 cutoff and Monte Carlo power across gamma values.

    Uses the oracle quantile region of the target nuisance distribution.
    Entries with gamma >= alpha are reported as skipped.
    """
    if config.scenario != SCENARIO_ANALYTIC:
        raise ConfigError("the gamma sweep is defined for the analytic scenario")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    evaluation = genmodel.sample_dataset(
        config.generative("target"), config.n_evaluation, config.seed, stream_base=STREAM_SWEEP
    )
    x1_class = evaluation.x[evaluation.y == 1]
    x0_class = evaluation.x[evaluation.y == 0]
    rows = []
    for gamma in np.asarray(gamma_grid, dtype=float):
        if gamma >= alpha:
            warnings.warn(f"gamma={gamma:g} >= alpha={alpha:g}; sweep entry skipped")
            rows.append({"gamma": float(gamma), "skipped": True, "reason": "gamma >= alpha"})
            continue
        # gamma = 0 gives the full space
        region = OracleQuantileProvider(gamma=float(gamma), distribution=config.target_prior).region(0)
        oracle = analytic_oracle_cutoffs(alpha, float(gamma), region)
        power1 = float(np.mean(x1_class >= oracle.x0_star)) if len(x1_class) else None
        power0 = float(np.mean(x0_class <= oracle.x1_star)) if len(x0_class) else None
        rows.append(
            {
                "gamma": float(gamma),
                "skipped": False,
                "x0_star": oracle.x0_star,
                "x1_star": oracle.x1_star,
                "arg_nu": oracle.arg_nu,
                "power_y1": power1,
                "power_y0": power0,
            }
        )
    active = [r for r in rows if not r["skipped"]]
    best = min(active, key=lambda r: r["x0_star"]) if active else None
    return {
        "alpha": alpha,
        "rows": rows,
        "n_skipped": sum(r["skipped"] for r in rows),
        "minimizing_gamma": None if best is None else best["gamma"],
        "min_x0_star": None if best is None else best["x0_star"],
    }


# ---------------------------------------------------------------------------
# Invariance of the rejection probability under the target shift.
# ---------------------------------------------------------------------------


def invariance_check(
    config: ExperimentConfig, pipeline: Pipeline, perturb_scale: float | None = None, min_cell_count: int = 5000
) -> dict:
    """Compare the pipeline's label-0 surface against target-data rejection rates.

    Within each (label, nuisance-bin) cell, the empirical CDF of the
    statistic on target-prior draws should match the calibration fit up to
    sampling noise; conditioning on (y, nu) removes the shift. The target
    CDFs are counted as the fit counts its own, by ``cell_cdfs`` on the
    surface's grid and binning, from the target draw ranked by ``_ranked``,
    along which label 0's statistic descends.
    Passing ``perturb_scale`` multiplies the class-0 rate parameter when
    generating target observations (while recording the unscaled nuisance),
    which breaks the shared-likelihood assumption and should blow up the
    distances.

    Cells with fewer target samples than ``min_cell_count`` are skipped:
    their empirical CDFs are too noisy to certify a sup-distance bound.
    """
    if perturb_scale is not None and config.scenario != SCENARIO_ANALYTIC:
        raise ConfigError("the likelihood perturbation applies to the analytic scenario")
    surface = pipeline.surfaces[0]
    target = genmodel.sample_dataset(
        config.generative("target"), config.n_calibration, config.seed, stream_base=STREAM_TARGET_CHECK
    )
    if perturb_scale is not None:
        mask = target.y == 0
        u = genmodel.stream_rng(config.seed, STREAM_PERTURB).random(int(np.sum(mask)))
        nu_eff = target.nu[mask] * perturb_scale
        # Inverse-CDF draw from the scaled-rate density; bypasses the domain
        # check on purpose, the perturbed rate leaves the nominal family.
        x = np.array(target.x)
        x[mask] = -np.log1p(u * np.expm1(-nu_eff)) / nu_eff
        target = dataclasses.replace(target, x=x)

    p1, _, order = _ranked(pipeline.model, target)
    tau0 = label_bayes_factors(p1, pipeline.model.class1_prior)[0][0]
    code = surface.binning.cell_code(target.y, target.nu)[order]
    ecdfs, n = cell_cdfs(code, {0: tau0}, {0: surface.grid}, surface.binning.n_cells)
    rows, skipped = [], []
    for y in (0, 1):
        for cell in range(surface.binning.n_cells):
            entry = {"y": y, "bin": cell, "n_target": int(n[y, cell])}
            if surface.binning.is_continuous:
                lo, hi = surface.binning.cell_bounds(cell)
                entry.update(nu_lo=lo, nu_hi=hi)
            if n[y, cell] < min_cell_count:
                skipped.append(entry)
                continue
            entry["sup_distance"] = float(np.max(np.abs(ecdfs[0][y, cell] - surface.values[y, cell])))
            rows.append(entry)
    if skipped:
        warnings.warn(
            f"invariance check: {len(skipped)} cells below {min_cell_count} target samples skipped"
        )
    max_sup = max((r["sup_distance"] for r in rows), default=None)
    return {
        "perturb_scale": perturb_scale,
        "min_cell_count": min_cell_count,
        "cells": rows,
        "skipped": skipped,
        "max_sup_distance": max_sup,
    }


# ---------------------------------------------------------------------------
# PIT diagnostics driver.
# ---------------------------------------------------------------------------


def run_pit_diagnostics(config: ExperimentConfig, pipeline: Pipeline, n_param_bins: int = 2) -> dict:
    """PIT tables for the pipeline's label-0 surface and a one-cell control.

    The tables group by label and ``NuBinning.for_space(space, n_param_bins)``
    cell: ``n_param_bins`` equal-width intervals on a continuous space, one
    cell per protocol on a discrete one. The control's single cell spans the
    whole space, so it deliberately ignores the nuisance parameter; its
    per-bin PIT failures demonstrate why marginal calibration is not enough.

    The control is label 0's surface fitted from the pipeline's
    ``calibration_posterior``, the sorted record its surfaces were fitted
    from; a loaded pipeline ranks its redrawn calibration set into the same.
    """
    p1, labels = pipeline.calibration_posterior or _ranked(pipeline.model, config.calibration_set())[:2]
    eval_ds = genmodel.sample_dataset(
        config.generative("train"), config.n_evaluation, config.seed, stream_base=STREAM_DIAGNOSE
    )
    tau0 = score_dataset(pipeline.model, eval_ds).statistics[0][0]
    space = config.train_prior.support
    lo, hi = space.bounds if space.is_continuous else (min(space.categories), max(space.categories))
    one_cell = NuBinning(edges=np.array([lo, hi], dtype=float)) if lo < hi else NuBinning.for_space(space, 1)
    label0 = {0: label_bayes_factors(p1, pipeline.model.class1_prior)[0]}
    flat_surface = _fit_surfaces(config, one_cell, label0, labels)[0]  # in one cell, a row's code is its label

    binning = NuBinning.for_space(space, n_param_bins)
    aware = pit_diagnostics(pipeline.surfaces[0], eval_ds, tau0, binning)
    flat = pit_diagnostics(flat_surface, eval_ds, tau0, binning)
    return {
        "n_evaluation": int(config.n_evaluation),
        "bins": [r["bin"] for r in aware],
        "nuisance_aware": aware,
        "nuisance_ignoring": flat,
    }
