"""End-to-end experiment runner.

Generates train/calibration/evaluation data, fits the classifier and the
per-label rejection surfaces once (``fit_pipeline``, from the calibration
posterior, sorted once and kept for the baselines and the PIT control),
evaluates every configured set-valued method over a grid of miscoverage
levels, and aggregates coverage, power, precision and ambiguity tables with
binomial standard errors. Also hosts the gamma power sweep and two checks
of a pipeline that they take, never fit: the rejection-probability
invariance check and the PIT diagnostic driver used by the CLI.

Everything is deterministic given the experiment seed: sampling uses
counter-based streams keyed off fixed role offsets, and reports serialize
with stable key order and full float precision.
"""

from __future__ import annotations

import dataclasses
import math
import os
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
        if self.value < 0:
            raise ConfigError("gamma rule value must be nonnegative")

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
        if min(self.n_train, self.n_calibration, self.n_evaluation) < 1:
            raise ConfigError("dataset sizes must be >= 1")
        if not 0.0 < self.class1_probability < 1.0:
            raise ConfigError("class1_probability must lie strictly inside (0, 1): both labels need a Bayes factor")
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ConfigError("alphas must lie strictly inside (0, 1)")
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
    the PIT control are fitted from. ``fit_pipeline`` keeps it in memory; it
    is never saved, so a loaded or hand-built pipeline has ``None`` there.
    """

    model: object
    binning: NuBinning
    surfaces: dict[int, RejectionSurface]
    calibration_posterior: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def save(self, out_dir: str) -> None:
        save_classifier(self.model, os.path.join(out_dir, "classifier.json"))
        for y in (0, 1):
            self.surfaces[y].save(os.path.join(out_dir, f"surface_bf{y}.json"))

    @staticmethod
    def load(model_dir: str) -> "Pipeline":
        path = os.path.join(model_dir, "classifier.json")
        model = load_classifier(path)
        if not 0.0 < model.class1_prior < 1.0:
            raise ConfigError(f"malformed fitted artifact {path}: class prior {model.class1_prior} not in (0, 1)")
        surfaces = {}
        for y in (0, 1):
            path = os.path.join(model_dir, f"surface_bf{y}.json")
            surfaces[y] = RejectionSurface.load(path)
            if surfaces[y].statistic_id != f"bayes-factor-{y}":
                found = surfaces[y].statistic_id
                raise ConfigError(f"malformed fitted artifact {path}: statistic {found!r}, not 'bayes-factor-{y}'")
        # both labels' surfaces are fitted on one binning, which the pipeline takes from label 0's
        if files.jsonable(surfaces[1].binning) != files.jsonable(surfaces[0].binning):
            raise ConfigError(f"malformed fitted artifact {path}: its binning differs from surface_bf0.json's")
        return Pipeline(model=model, binning=surfaces[0].binning, surfaces=surfaces)


def build_model(config: ExperimentConfig):
    if config.classifier == "analytic-marginal":
        return AnalyticMarginalClassifier(config.generative("train"))
    return fit_histogram_classifier(config.train_set(), config.histogram_bins, config.generative("train"))


def fit_pipeline(config: ExperimentConfig) -> Pipeline:
    """Fit the classifier and both Bayes-factor rejection surfaces."""
    return _fit(config, config.calibration_set())


def _fit(config: ExperimentConfig, calibration: Dataset) -> Pipeline:
    """``fit_pipeline`` on its calibration set, drawn by the caller, which one argsort of ``p1`` orders."""
    model = build_model(config)
    p1 = model.posterior1(calibration.x)
    binning = config.binning()
    order = np.argsort(p1)
    p1, labels, cells = p1[order], calibration.y[order], binning.cell_index(calibration.nu)[order]
    statistics = label_bayes_factors(p1, model.class1_prior)
    surfaces = _fit_surfaces(config, binning, statistics, labels, cells)
    return Pipeline(model=model, binning=binning, surfaces=surfaces, calibration_posterior=(p1, labels))


def _fit_surfaces(
    config: ExperimentConfig, binning: NuBinning, statistics: dict, labels, cells
) -> dict[int, RejectionSurface]:
    """The Bayes-factor rejection surface of each label in ``statistics``, ``{y: surface}``.

    ``statistics`` holds some labels of ``label_bayes_factors`` of an
    ascending calibration posterior, and ``labels`` and ``cells`` are the
    calibration labels and ``binning`` cells in its order. Label 1's
    statistic is built from ``p1`` and label 0's from ``1 - p1`` by monotone
    rounded operations, elementwise, so label 1's comes out ascending and
    label 0's descending, up to ties, which counting does not see. Each
    label's grid and its counting read the same sorted values.
    """
    surfaces = {}
    for y, (statistic, _) in statistics.items():
        step = 2 * y - 1  # label 0 reads every array reversed
        grid = cutoff_grid_from_values(statistic[::step], config.cutoff_grid_size)
        surfaces[y] = fit_surface(
            labels[::step], statistic[::step], grid, binning, f"bayes-factor-{y}", config.seed,
            cells=cells[::step], grid_size=config.cutoff_grid_size,
        )
    return surfaces


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


def _rate(numer: int, denom: int) -> tuple[float | None, float | None]:
    if denom == 0:
        return None, None
    p = numer / denom
    return float(p), float(math.sqrt(p * (1.0 - p) / denom))


def _segment_metrics(t: np.ndarray) -> dict:
    """Metrics of one segment from its counts ``t[y, include0, include1]``."""
    n = int(t.sum())
    covered = int(t[0, 1, :].sum() + t[1, :, 1].sum())
    other_included = int(t[0, :, 1].sum() + t[1, 1, :].sum())
    coverage, coverage_se = _rate(covered, n)
    power, power_se = _rate(n - other_included, n)
    ambiguity, _ = _rate(int(t[:, 1, 1].sum()), n)
    empty_rate, _ = _rate(int(t[:, 0, 0].sum()), n)
    # (k0 + k1) / n is exactly the mean of the 0/1/2 set sizes.
    size = int(t[:, 1, :].sum() + t[:, :, 1].sum()) / n if n else None
    return {
        "n": n,
        "coverage": coverage,
        "coverage_se": coverage_se,
        "power": power,
        "power_se": power_se,
        "ambiguity_rate": ambiguity,
        "empty_rate": empty_rate,
        "mean_set_size": size,
    }


def compute_metrics(y, cells, include0, include1, report_binning: NuBinning) -> dict:
    """Coverage/power/precision tables: marginal, per class, per (class, bin).

    ``cells`` is each point's ``report_binning.cell_index``. One count over
    the code (cell, y, include0, include1); every table is a sum over that
    count tensor.
    """
    y = np.asarray(y).astype(np.intp)
    include0 = np.asarray(include0, dtype=bool)
    include1 = np.asarray(include1, dtype=bool)
    m = report_binning.n_cells
    code = ((cells * 2 + y) * 2 + include0) * 2 + include1
    counts = np.bincount(code, minlength=8 * m).reshape(m, 2, 2, 2)
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
    precision0, precision0_se = _rate(table["single_0_correct"], table["single_0"])
    precision1, precision1_se = _rate(table["single_1_correct"], table["single_1"])

    out = {
        "marginal": _segment_metrics(total),
        "precision": {
            "0": {"value": precision0, "se": precision0_se, "n": table["single_0"]},
            "1": {"value": precision1, "se": precision1_se, "n": table["single_1"]},
        },
        "by_class": {str(label): _segment_metrics(only[label] * total) for label in (0, 1)},
        "counts": table,
    }

    by_bin: dict[str, list] = {"0": [], "1": []}
    for label in (0, 1):
        for cell in range(m):
            seg = _segment_metrics(only[label] * counts[cell])
            if report_binning.is_continuous:
                lo, hi = report_binning.cell_bounds(cell)
                seg["nu_bin"] = {"index": cell, "lo": lo, "hi": hi}
            else:
                seg["nu_bin"] = {"index": cell, "category": int(report_binning.categories[cell])}
            by_bin[str(label)].append(seg)
    out["by_class_nu_bin"] = by_bin
    return out


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
    pipeline without a calibration posterior, one loaded from disk, draws
    and scores that set once if a baseline needs it. Each NAPS method's
    provider carries the gamma its rule gives at alpha.
    """
    return _run_scored(config, pipeline)[0]


def _run_scored(
    config: ExperimentConfig, pipeline: Pipeline | None = None
) -> tuple[MetricsReport, Pipeline, ScoredDataset]:
    """The report together with the pipeline and the scored evaluation set it used."""
    calibration = None  # the calibration Dataset, once at hand
    if pipeline is None:
        calibration = config.calibration_set()
        pipeline = _fit(config, calibration)
    model = pipeline.model
    evaluation = score_dataset(model, config.evaluation_set())

    posterior = pipeline.calibration_posterior
    baselines: dict[str, object] = {}
    for spec in config.methods:
        if spec.kind in ("naps", "bayes-point"):
            continue
        if posterior is None:
            # A loaded pipeline keeps no calibration posterior: its calibration set is drawn and scored here.
            calibration = config.calibration_set()
            posterior = (model.posterior1(calibration.x), calibration.y)
        if spec.kind == "plug-in":
            if calibration is None:
                # plug-in scores the set its own way, so it is drawn but not scored
                calibration = config.calibration_set()
            baselines[spec.name] = PlugInConditionalBaseline.fit(model, calibration, pipeline.binning)
        elif spec.kind == "standard":
            baselines[spec.name] = StandardSetsBaseline.fit(*posterior)
        else:
            baselines[spec.name] = ClassConditionalBaseline.fit(*posterior)

    report_binning = config.report_binning()
    cells = report_binning.cell_index(evaluation.data.nu)
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
            elif spec.kind in ("standard", "class-conditional"):
                include0, include1 = baselines[spec.name].include_batch(evaluation.p1, alpha)
            elif spec.kind == "plug-in":
                include0, include1 = baselines[spec.name].include_batch(model, evaluation.data.x, alpha)
            else:  # bayes-point
                labels = bayes_point_batch(evaluation.p1, spec.costs)
                include0 = labels == 0
                include1 = labels == 1
            tables = compute_metrics(evaluation.data.y, cells, include0, include1, report_binning)
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
    surface's grid and binning, from the target posterior sorted once.
    Passing ``perturb_scale`` multiplies the class-0 rate parameter when
    generating target observations (while recording the unscaled nuisance),
    which breaks the shared-likelihood assumption and should blow up the
    distances.

    Cells with fewer target samples than ``min_cell_count`` are skipped:
    their empirical CDFs are too noisy to certify a sup-distance bound.
    """
    surface = pipeline.surfaces[0]
    target = genmodel.sample_dataset(
        config.generative("target"), config.n_calibration, config.seed, stream_base=STREAM_TARGET_CHECK
    )
    if perturb_scale is not None:
        if config.scenario != SCENARIO_ANALYTIC:
            raise ConfigError("the likelihood perturbation applies to the analytic scenario")
        mask = target.y == 0
        u = genmodel.stream_rng(config.seed, STREAM_PERTURB).random(int(np.sum(mask)))
        nu_eff = target.nu[mask] * perturb_scale
        # Inverse-CDF draw from the scaled-rate density; bypasses the domain
        # check on purpose, the perturbed rate leaves the nominal family.
        x = np.array(target.x)
        x[mask] = -np.log1p(u * np.expm1(-nu_eff)) / nu_eff
        target = dataclasses.replace(target, x=x)

    p1 = pipeline.model.posterior1(target.x)
    order = np.argsort(p1)[::-1]  # label 0's statistic ascends along descending p1, as in the fit
    ranked = label_bayes_factors(p1[order], pipeline.model.class1_prior)[0][0]
    cells = surface.binning.cell_index(target.nu)[order]
    ecdf, n = cell_cdfs(target.y[order], cells, ranked, surface.grid, surface.binning.n_cells)
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
            entry["sup_distance"] = float(np.max(np.abs(ecdf[y, cell] - surface.values[y, cell])))
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
    ``calibration_posterior``, already sorted, the one its own surfaces were
    fitted from. A loaded pipeline keeps no posterior and is refused.
    """
    if pipeline.calibration_posterior is None:
        raise ConfigError("the PIT control is fitted from a calibration posterior, which a loaded pipeline lacks")
    p1, labels = pipeline.calibration_posterior
    eval_ds = genmodel.sample_dataset(
        config.generative("train"), config.n_evaluation, config.seed, stream_base=STREAM_DIAGNOSE
    )
    tau0 = score_dataset(pipeline.model, eval_ds).statistics[0][0]
    space = config.train_prior.support
    lo, hi = space.bounds if space.is_continuous else (min(space.categories), max(space.categories))
    one_cell = NuBinning(edges=np.array([lo, hi], dtype=float)) if lo < hi else NuBinning.for_space(space, 1)
    every_cell_0 = np.zeros(len(labels), dtype=np.intp)
    label0 = {0: label_bayes_factors(p1, pipeline.model.class1_prior)[0]}
    flat_surface = _fit_surfaces(config, one_cell, label0, labels, every_cell_0)[0]

    binning = NuBinning.for_space(space, n_param_bins)
    aware = pit_diagnostics(pipeline.surfaces[0], eval_ds, tau0, binning)
    flat = pit_diagnostics(flat_surface, eval_ds, tau0, binning)
    return {
        "n_evaluation": int(config.n_evaluation),
        "bins": [r["bin"] for r in aware],
        "nuisance_aware": aware,
        "nuisance_ignoring": flat,
    }
