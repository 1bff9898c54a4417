import dataclasses
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

import naps
from naps import genmodel as gm
from naps import cli, files, harness
from naps import prediction_sets as ps
from naps.classifier import score_dataset
from naps.errors import ConfigError
from naps.nuisance import FullSpaceProvider, OracleQuantileProvider
from naps.rejection import NuBinning, RejectionSurface

X0_STAR_005 = 0.9175778871209889


def small_config(**overrides):
    defaults = dict(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=20_000,
        n_evaluation=5_000,
        alphas=(0.1, 0.2),
        nu_bins=10,
        cutoff_grid_size=100,
        seed=17,
    )
    defaults.update(overrides)
    return harness.ExperimentConfig(**defaults)


def test_config_roundtrip(tmp_path):
    # every prior kind, gamma-rule kind, provider and method kind, through the strict file format
    methods = (
        *harness.default_methods(),
        harness.MethodSpec(name="plug-in", kind="plug-in"),
        harness.MethodSpec(name="bayes-point", kind="bayes-point", costs=(1.0, 2.5)),
    )
    toy_prior = gm.discrete_prior((0.1, 0.2, 0.3, 0.4))
    configs = [
        small_config(),
        small_config(methods=methods, train_prior=gm.point_mass_prior(2.5), nu_bin_scheme="geometric", output_dir="o"),
        small_config(scenario=gm.SCENARIO_DISCRETE, train_prior=toy_prior, target_prior=toy_prior, methods=methods[2:]),
    ]
    for cfg in configs:
        assert harness.ExperimentConfig.from_dict(files.jsonable(cfg)) == cfg
        files.write_json(tmp_path / "config.json", cfg)
        assert harness.ExperimentConfig.from_json_file(tmp_path / "config.json") == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(alphas=(0.0, 0.1))
    # 0.10000000000000001 is the float 0.1: a report would tabulate both under one key, '0.1'
    with pytest.raises(ConfigError, match="alphas must be distinct"):
        small_config(alphas=(0.05, 0.1, 0.10000000000000001))
    with pytest.raises(ConfigError):
        small_config(n_evaluation=0)
    with pytest.raises(ConfigError):
        small_config(
            methods=(
                harness.MethodSpec(
                    name="m", kind="naps", gamma_rule=harness.GammaRule("fixed", 0.5)
                ),
            )
        )  # gamma >= smallest alpha
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict({**files.jsonable(small_config()), "bogus": 1})
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_json_file("/nonexistent/config.json")


def test_gamma_rule():
    rule = harness.GammaRule("alpha-multiple", 0.01)
    assert rule.gamma_for(0.2) == pytest.approx(0.002)
    with pytest.raises(ConfigError):
        harness.GammaRule("fixed", 0.3).gamma_for(0.2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.01])
def test_gamma_rule_refuses_a_value_that_is_not_finite_and_nonnegative(value):
    for kind in ("fixed", "alpha-multiple"):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            harness.GammaRule(kind, value)


@pytest.mark.parametrize(
    "key, value",
    [("nu_bins", 0), ("nu_bins", -3), ("report_nu_bins", 0), ("histogram_bins", 0), ("cutoff_grid_size", 1),
     ("n_train", 0), ("n_calibration", 0), ("n_evaluation", 0)],
)
def test_config_refuses_counts_below_their_least(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be at least"):
        small_config(**{key: value})


def test_run_experiment_deterministic():
    cfg = small_config()
    a = harness.run_experiment(cfg)
    b = harness.run_experiment(cfg)
    assert json.dumps(a.data, sort_keys=True) == json.dumps(b.data, sort_keys=True)


def test_amortization_refit_vs_loaded(tmp_path):
    for cfg in (small_config(), small_config(classifier="histogram", n_train=20_000)):
        pipeline = harness.fit_pipeline(cfg)
        pipeline.save(tmp_path / cfg.classifier)
        loaded = harness.Pipeline.load(str(tmp_path / cfg.classifier), config=cfg)
        # every saved artifact reads back; the calibration posterior stays in memory
        for artifact in (lambda p: p.model, lambda p: p.binning, lambda p: p.surfaces[0], lambda p: p.surfaces[1]):
            assert files.jsonable(artifact(loaded)) == files.jsonable(artifact(pipeline))
        assert type(loaded.model) is type(pipeline.model)
        assert pipeline.calibration_posterior is not None and loaded.calibration_posterior is None
        written = []
        for name, run in (("fresh", None), ("prefitted", pipeline), ("reloaded", loaded)):
            path = tmp_path / f"{cfg.classifier}-{name}.json"
            harness.run_experiment(cfg, pipeline=run).to_json(path)
            written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """``fit_pipeline`` of analytic and histogram configs, saved, by classifier kind: (config, models directory)."""
    saved = {}
    for cfg in (small_config(), small_config(classifier="histogram", n_train=20_000)):
        models = tmp_path_factory.mktemp(cfg.classifier)
        harness.fit_pipeline(cfg).save(str(models))
        saved[cfg.classifier] = cfg, str(models)
    return saved


@pytest.mark.parametrize(
    "kind, changes, artifact, field",
    [
        ("analytic-marginal", {"seed": 11}, "surface_bf0.json", "seed is 17, configured 11"),
        ("analytic-marginal", {"n_calibration": 2_000}, "surface_bf0.json", "n_calibration is 20000, configured 2000"),
        ("analytic-marginal", {"cutoff_grid_size": 50}, "surface_bf0.json", "grid_size is 100, configured 50"),
        ("analytic-marginal", {"nu_bins": 5}, "surface_bf0.json", "binning is"),
        ("analytic-marginal", {"nu_bin_scheme": "geometric"}, "surface_bf0.json", "binning is"),
        ("analytic-marginal", {"train_prior": naps.truncated_gaussian_prior(5.0, 2.0)}, "classifier.json",
         "training distribution is"),
        ("analytic-marginal", {"classifier": "histogram"}, "classifier.json",
         "kind is 'analytic-marginal', configured 'histogram'"),
        ("histogram", {"classifier": "analytic-marginal"}, "classifier.json",
         "kind is 'histogram', configured 'analytic-marginal'"),
        ("histogram", {"histogram_bins": 32}, "classifier.json", "histogram bins is 64, configured 32"),
        ("histogram", {"n_train": 2_000}, "classifier.json", "n_train is 20000, configured 2000"),
    ],
    ids=["seed", "n-calibration", "grid-size", "nu-bins", "nu-bin-scheme", "train-prior", "histogram-not-analytic",
         "analytic-not-histogram", "histogram-bins", "n-train"],
)
def test_load_refuses_artifacts_fitted_under_another_config(saved_models, kind, changes, artifact, field):
    cfg, models = saved_models[kind]
    harness.Pipeline.load(models, config=cfg)
    with pytest.raises(ConfigError) as refused:
        harness.Pipeline.load(models, config=dataclasses.replace(cfg, **changes))
    message = str(refused.value)
    assert f"fitted artifact {os.path.join(models, artifact)} does not match the configuration" in message
    assert field in message


def test_library_refuses_artifacts_of_another_seed_and_binning(tmp_path):
    # every library entry point takes a loaded pipeline, so a report, an invariance table or a PIT table
    # would echo seed 11 and 5 bins over surfaces fitted at seed 7 on 20 bins
    fitted = small_config(seed=7, nu_bins=20)
    harness.fit_pipeline(fitted).save(str(tmp_path))
    with pytest.raises(ConfigError, match=r"surface_bf0\.json does not match the configuration: binning is .*; seed is 7"):
        harness.Pipeline.load(str(tmp_path), config=dataclasses.replace(fitted, seed=11, nu_bins=5))


class PassCounter:
    """Points scored by the analytic posterior and datasets drawn, per sampling stream."""

    def __init__(self, monkeypatch):
        self.scored, self.draws, self._drawn = Counter(), Counter(), {}
        sample, posterior1 = gm.sample_dataset, naps.AnalyticMarginalClassifier.posterior1

        def counting_sample(*args, stream_base=0):
            ds = sample(*args, stream_base=stream_base)
            self.draws[stream_base] += 1
            self._drawn[id(ds.x)] = (stream_base, ds)  # holding ds keeps the id unique
            return ds

        def counting_posterior1(model, x):
            self.scored[self._drawn.get(id(x), (None,))[0]] += int(np.size(x))
            return posterior1(model, x)

        monkeypatch.setattr(gm, "sample_dataset", counting_sample)
        monkeypatch.setattr(naps.AnalyticMarginalClassifier, "posterior1", counting_posterior1)

    def clear(self):
        self.scored.clear()
        self.draws.clear()
        self._drawn.clear()


def test_each_dataset_drawn_and_scored_once(monkeypatch, tmp_path):
    cfg = small_config()
    naps_only = dataclasses.replace(cfg, methods=cfg.methods[:2])
    plug_in = harness.MethodSpec(name="plug-in", kind="plug-in")
    plug_in_only = dataclasses.replace(cfg, methods=(plug_in,))
    every_baseline = dataclasses.replace(cfg, methods=(*cfg.methods, plug_in))
    pipeline = harness.fit_pipeline(cfg)
    pipeline.save(tmp_path)
    loaded = harness.Pipeline.load(str(tmp_path), config=cfg)
    cal, ev, diag = harness.STREAM_CALIBRATION, harness.STREAM_EVALUATION, harness.STREAM_DIAGNOSE
    n_cal, n_ev = cfg.n_calibration, cfg.n_evaluation
    counter = PassCounter(monkeypatch)
    for run, scored, cal_draws in (
        (lambda: harness.run_experiment(cfg), {cal: n_cal, ev: n_ev}, 1),
        # a fresh fit hands its calibration set to plug-in: drawn once for both
        (lambda: harness.run_experiment(every_baseline), {cal: n_cal, ev: n_ev}, 1),
        # the in-memory pipeline keeps its calibration posterior
        (lambda: harness.run_experiment(cfg, pipeline=pipeline), {ev: n_ev}, 0),
        (lambda: harness.run_experiment(naps_only, pipeline=pipeline), {ev: n_ev}, 0),
        # plug-in scores the calibration set its own way: drawn, not scored
        (lambda: harness.run_experiment(plug_in_only, pipeline=pipeline), {ev: n_ev}, 1),
        # a loaded pipeline draws and scores the calibration set once, for every baseline
        (lambda: harness.run_experiment(every_baseline, pipeline=loaded), {cal: n_cal, ev: n_ev}, 1),
        # plug-in alone needs no calibration posterior, so a loaded pipeline only draws the set
        (lambda: harness.run_experiment(plug_in_only, pipeline=loaded), {ev: n_ev}, 1),
        # the PIT control is fitted from the pipeline's calibration posterior
        (lambda: harness.run_pit_diagnostics(cfg, pipeline), {diag: n_ev}, 0),
        # a loaded pipeline scores its calibration set once for it
        (lambda: harness.run_pit_diagnostics(cfg, loaded), {cal: n_cal, diag: n_ev}, 1),
    ):
        counter.clear()
        run()
        assert counter.scored == Counter(scored)
        assert counter.draws[cal] == cal_draws


def test_prefitted_run_sorts_no_calibration_sized_array(monkeypatch):
    # the baselines read the fitted pipeline's ranked posterior
    cfg = small_config()
    assert cfg.methods == harness.default_methods()
    pipeline = harness.fit_pipeline(cfg)
    sizes = []
    for name in ("sort", "argsort"):
        def spy(a, *args, real=getattr(np, name), **kwargs):
            sizes.append(np.size(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    harness.run_experiment(cfg, pipeline)
    assert [size for size in sizes if size >= cfg.n_calibration] == []


def test_one_class_split_per_run(monkeypatch, tmp_path):
    cfg = small_config()
    pipeline = harness.fit_pipeline(cfg)
    pipeline.save(tmp_path)
    loaded = harness.Pipeline.load(str(tmp_path), config=cfg)
    splits = []
    real = harness.class_scores
    monkeypatch.setattr(harness, "class_scores", lambda p1, y: splits.append(len(p1)) or real(p1, y))
    for methods, used in ((cfg.methods, pipeline), (cfg.methods[2:], loaded), (cfg.methods[:2], pipeline)):
        splits.clear()
        harness.run_experiment(dataclasses.replace(cfg, methods=methods), used)
        baselines = [m for m in methods if m.kind in ("standard", "class-conditional")]
        assert splits == ([cfg.n_calibration] if baselines else [])


@pytest.mark.parametrize("prefitted", [False, True])
def test_evaluate_dump_draws_and_scores_each_dataset_once(tmp_path, monkeypatch, prefitted):
    cfg = small_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(files.jsonable(cfg)))
    argv = ["evaluate", "--config", str(path), "--out", str(tmp_path / "r"), "--dump-predictions"]
    if prefitted:
        assert cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "m")]) == 0
        argv += ["--models", str(tmp_path / "m")]
    counter = PassCounter(monkeypatch)
    assert cli.main(argv) == 0
    cal, ev = harness.STREAM_CALIBRATION, harness.STREAM_EVALUATION
    assert counter.scored == Counter({cal: cfg.n_calibration, ev: cfg.n_evaluation})
    assert counter.draws == Counter({cal: 1, ev: 1})
    assert len(open(tmp_path / "r" / "naps_predictions.csv").read().splitlines()) == cfg.n_evaluation + 1


def masked_segment(y, include0, include1, mask):
    """Reference for one metrics segment: masked passes over the points."""
    n = int(np.sum(mask))

    def rate(k):
        return None if n == 0 else k / n

    def se(k):
        return None if n == 0 else math.sqrt(k / n * (1 - k / n) / n)

    covered = int(np.sum(np.where(y == 1, include1, include0)[mask]))
    not_other = int(np.sum(~np.where(y == 1, include0, include1)[mask]))
    size = float(np.mean(include0[mask].astype(float) + include1[mask].astype(float))) if n else None
    return {
        "n": n,
        "coverage": rate(covered),
        "coverage_se": se(covered),
        "power": rate(not_other),
        "power_se": se(not_other),
        "ambiguity_rate": rate(int(np.sum((include0 & include1)[mask]))),
        "empty_rate": rate(int(np.sum((~include0 & ~include1)[mask]))),
        "mean_set_size": size,
    }


def check_compute_metrics(draw, tmp_path):
    """compute_metrics against the masked reference on one synthetic draw."""
    rng = np.random.default_rng(5)
    n = 3000
    y = (rng.random(n) < 0.4).astype(np.int8)
    include0, include1 = rng.random(n) < 0.7, rng.random(n) < 0.5
    if draw == "categories":
        nu = rng.integers(0, 3, n)  # the last category stays empty
        binning = NuBinning.discrete(range(4))
    else:
        nu = rng.uniform(1.0, 7.0, n)  # the top report bins stay empty
        binning = NuBinning.equal_width(1.0, 10.0, 6)
    if draw == "no-label-1":
        y[:] = 0
        include1 &= include0  # and no set is {1} alone
    cells = binning.cell_index(nu)
    got = harness.compute_metrics(harness.report_rows(y, cells, binning), include0, include1)
    assert got["marginal"] == masked_segment(y, include0, include1, np.ones(n, dtype=bool))
    for label in (0, 1):
        assert got["by_class"][str(label)] == masked_segment(y, include0, include1, y == label)
        for cell, seg in enumerate(got["by_class_nu_bin"][str(label)]):
            seg = {k: v for k, v in seg.items() if k != "nu_bin"}
            assert seg == masked_segment(y, include0, include1, (y == label) & (cells == cell))
    single0, single1 = include0 & ~include1, include1 & ~include0
    assert got["counts"] == {
        "n": n,
        "empty": int(np.sum(~include0 & ~include1)),
        "single_0": int(np.sum(single0)),
        "single_1": int(np.sum(single1)),
        "both": int(np.sum(include0 & include1)),
        "single_0_correct": int(np.sum(single0 & (y == 0))),
        "single_1_correct": int(np.sum(single1 & (y == 1))),
    }
    assert got["by_class_nu_bin"]["0"][-1]["n"] == 0
    for label, single in (("0", single0), ("1", single1)):
        k, hit = int(np.sum(single)), int(np.sum(single & (y == int(label))))
        p = hit / k if k else None
        assert got["precision"][label] == {"value": p, "se": math.sqrt(p * (1 - p) / k) if k else None, "n": k}
    for label in ("0", "1"):
        for cell, seg in enumerate(got["by_class_nu_bin"][label]):
            if binning.is_continuous:
                lo, hi = binning.cell_bounds(cell)
                assert seg["nu_bin"] == {"index": cell, "lo": lo, "hi": hi}
            else:
                assert seg["nu_bin"] == {"index": cell, "category": cell}
    if draw == "no-label-1":
        # every rate of an empty segment is None, never NaN
        empty = [got["by_class"]["1"], *got["by_class_nu_bin"]["1"]]
        assert all(seg["n"] == 0 for seg in empty)
        assert all(v is None for seg in empty for k, v in seg.items() if k not in ("n", "nu_bin"))
        assert got["precision"]["1"] == {"value": None, "se": None, "n": 0}
    files.write_json(tmp_path / "metrics.json", got)  # strict JSON: a NaN is refused


def test_compute_metrics_matches_masked_reference(tmp_path):
    check_compute_metrics("equal-width", tmp_path)


@pytest.mark.parametrize("draw", ["categories", "no-label-1"])
def test_compute_metrics_matches_masked_reference_edge_draws(draw, tmp_path):
    check_compute_metrics(draw, tmp_path)


def test_report_counts_reconcile():
    cfg = small_config()
    report = harness.run_experiment(cfg)
    n = cfg.n_evaluation
    for mname, mdata in report.data["methods"].items():
        for akey, tables in mdata["alphas"].items():
            counts = tables["counts"]
            assert counts["empty"] + counts["single_0"] + counts["single_1"] + counts["both"] == n
            # coverage, precision and confusion counts agree with each other
            covered = counts["both"] + counts["single_0_correct"] + counts["single_1_correct"]
            assert round(tables["marginal"]["coverage"] * n) == covered
            for c in ("0", "1"):
                p = tables["precision"][c]
                if p["value"] is not None:
                    assert round(p["value"] * p["n"]) == counts[f"single_{c}_correct"]
            by_class_n = tables["by_class"]["0"]["n"] + tables["by_class"]["1"]["n"]
            assert by_class_n == n
            for c in ("0", "1"):
                bins_n = sum(seg["n"] for seg in tables["by_class_nu_bin"][c])
                assert bins_n == tables["by_class"][c]["n"]


def test_report_json_and_long_table(tmp_path):
    cfg = small_config()
    report = harness.run_experiment(cfg)
    jpath = tmp_path / "report.json"
    report.to_json(jpath)
    again = json.loads(jpath.read_text())
    assert again == report.data
    lpath = tmp_path / "long.csv"
    report.write_long_table(lpath)
    lines = lpath.read_text().splitlines()
    assert lines[0] == "method,alpha,segment,metric,value,se,n"
    assert len(lines) > 50


def test_naps_report_carries_cutoffs_and_gamma():
    cfg = small_config()
    report = harness.run_experiment(cfg)
    table = report.method_alpha("naps-oracle", 0.2)
    assert table["gamma"] == pytest.approx(0.002)
    assert table["cutoff0"] < table["cutoff1"] or table["cutoff0"] != table["cutoff1"]
    assert table["saturated_labels"] == []


def test_classifier_batches_match_report_counts():
    # the report and a classifier built here, outside the harness, agree on
    # every NAPS method at every alpha
    cfg = small_config()
    pipeline = harness.fit_pipeline(cfg)
    report = harness.run_experiment(cfg, pipeline=pipeline)
    evaluation = gm.sample_dataset(
        cfg.generative("target"), cfg.n_evaluation, cfg.seed, stream_base=harness.STREAM_EVALUATION
    )
    y = evaluation.y
    for name, gamma_of, provider_of in (
        ("naps", lambda a: 0.0, lambda g: FullSpaceProvider(space=cfg.train_prior.support, gamma=g)),
        (
            "naps-oracle",
            lambda a: 0.01 * a,
            lambda g: OracleQuantileProvider(gamma=g, distribution=cfg.target_prior),
        ),
    ):
        for alpha in cfg.alphas:
            gamma = gamma_of(alpha)
            provider = provider_of(gamma)
            clf = ps.NapsSetClassifier(
                model=pipeline.model, surfaces=pipeline.surfaces, providers={0: provider, 1: provider}
            )
            batch = clf.predict_batch(evaluation.x, alpha)
            i0, i1 = batch.include0, batch.include1
            table = report.method_alpha(name, alpha)
            assert table["counts"] == {
                "n": len(y),
                "empty": int(np.sum(~i0 & ~i1)),
                "single_0": int(np.sum(i0 & ~i1)),
                "single_1": int(np.sum(i1 & ~i0)),
                "both": int(np.sum(i0 & i1)),
                "single_0_correct": int(np.sum(i0 & ~i1 & (y == 0))),
                "single_1_correct": int(np.sum(i1 & ~i0 & (y == 1))),
            }
            assert (table["cutoff0"], table["cutoff1"]) == (batch.cutoff0, batch.cutoff1)


def saturating_pipeline(cfg):
    """Hand-built surfaces: label 0's fitted maximum (0.02) is below every alpha."""
    binning = NuBinning.equal_width(1.0, 10.0, 2)
    grid = np.array([0.5, 1.0, 2.0])
    values = np.empty((2, binning.n_cells, len(grid)))
    values[0] = [0.0, 0.01, 0.02]
    values[1] = [0.0, 0.5, 1.0]
    surface = RejectionSurface(statistic_id="hand", binning=binning, grid=grid, values=values)
    model = naps.AnalyticMarginalClassifier(cfg.generative("train"))
    return harness.Pipeline(model=model, surfaces={0: surface, 1: surface})


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_saturated_label_included_flagged_and_strict_json(tmp_path):
    cfg = small_config(alphas=(0.1,), methods=(harness.MethodSpec(name="naps", kind="naps"),))
    pipeline = saturating_pipeline(cfg)
    provider = FullSpaceProvider(space=cfg.train_prior.support)
    clf = ps.NapsSetClassifier(
        model=pipeline.model, surfaces=pipeline.surfaces, providers={0: provider, 1: provider}
    )
    pred = clf.predict(0.99, alpha=0.1)  # deep in class-1 territory
    d0, d1 = pred.decisions
    assert 0 in pred and d0.saturated and d0.cutoff == -math.inf
    assert not d1.saturated

    report = harness.run_experiment(cfg, pipeline=pipeline)
    table = report.method_alpha("naps", 0.1)
    assert table["saturated_labels"] == [0]
    assert table["cutoff0"] is None and table["cutoff1"] == 1.0
    assert table["by_class"]["0"]["coverage"] == 1.0  # label 0 is in every set
    path = tmp_path / "report.json"
    report.to_json(path)
    data = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert data["methods"]["naps"]["alphas"]["0.1"]["cutoff0"] is None
    # a non-finite number can no longer reach the file
    report.data["methods"]["naps"]["alphas"]["0.1"]["cutoff0"] = -math.inf
    with pytest.raises(ValueError):
        report.to_json(tmp_path / "bad.json")


def test_histogram_classifier_pipeline():
    cfg = small_config(classifier="histogram", n_train=40_000, histogram_bins=32)
    report = harness.run_experiment(cfg)
    cov = report.method_alpha("naps", 0.2)["marginal"]["coverage"]
    # estimated classifier: same machinery, still conservative under GLS
    assert cov >= 0.8 - 0.02


def test_discrete_scenario_end_to_end():
    weights = (0.4, 0.3, 0.2, 0.1)
    prior = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=weights)
    shifted = naps.PriorSpec(
        kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=(0.05, 0.05, 0.1, 0.8)
    )
    cfg = harness.ExperimentConfig(
        scenario=gm.SCENARIO_DISCRETE,
        train_prior=prior,
        target_prior=shifted,
        n_calibration=40_000,
        n_evaluation=10_000,
        alphas=(0.1,),
        methods=(
            harness.MethodSpec(name="naps", kind="naps"),
            harness.MethodSpec(name="standard", kind="standard"),
        ),
        nu_bins=4,
        report_nu_bins=4,
        cutoff_grid_size=64,
        seed=23,
    )
    report = harness.run_experiment(cfg)
    cov = report.method_alpha("naps", 0.1)["marginal"]["coverage"]
    se = math.sqrt(0.1 * 0.9 / cfg.n_evaluation)
    assert cov >= 0.9 - 3 * se
    # per-protocol conditional coverage holds for the nuisance-aware sets
    for c in ("0", "1"):
        for seg in report.method_alpha("naps", 0.1)["by_class_nu_bin"][c]:
            if seg["n"] >= 200:
                se_cell = math.sqrt(0.1 * 0.9 / seg["n"])
                assert seg["coverage"] >= 0.9 - 3 * se_cell


def discrete_toy_config():
    prior = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=(0.4, 0.3, 0.2, 0.1))
    return harness.ExperimentConfig(
        scenario=gm.SCENARIO_DISCRETE,
        train_prior=prior,
        target_prior=prior,
        n_calibration=40_000,
        n_evaluation=10_000,
        alphas=(0.1,),
        methods=(harness.MethodSpec(name="naps", kind="naps"),),
        nu_bins=4,
        cutoff_grid_size=64,
        seed=11,
    )


def test_discrete_pit_control_ignores_the_protocol(monkeypatch):
    cfg = discrete_toy_config()
    binnings = []
    fit_surfaces = harness._fit_surfaces

    def spy(config, binning, *calibration):
        binnings.append(binning)
        return fit_surfaces(config, binning, *calibration)

    monkeypatch.setattr(harness, "_fit_surfaces", spy)
    result = harness.run_pit_diagnostics(cfg, harness.fit_pipeline(cfg), n_param_bins=2)
    # the fitted surfaces of both labels, then the control
    assert [b.n_cells for b in binnings] == [4, 1]
    cats = gm.DISCRETE_SPACE.categories
    assert result["bins"] == [f"y={y},protocols=[{c}]" for y in (0, 1) for c in cats]
    aware = [r["ks_distance"] for r in result["nuisance_aware"]]
    flat = [r["ks_distance"] for r in result["nuisance_ignoring"]]
    assert aware != flat
    assert max(flat) > max(aware)


@pytest.mark.parametrize("make_config", [small_config, discrete_toy_config], ids=["analytic", "discrete-toy"])
def test_pit_diagnostics_of_a_loaded_pipeline_equal_the_fitted_ones(tmp_path, make_config):
    cfg = make_config()
    pipeline = harness.fit_pipeline(cfg)
    pipeline.save(tmp_path)
    loaded = harness.Pipeline.load(str(tmp_path), config=cfg)
    assert loaded.calibration_posterior is None
    assert harness.run_pit_diagnostics(cfg, loaded) == harness.run_pit_diagnostics(cfg, pipeline)


def test_pit_control_fits_label_0_alone(monkeypatch):
    cfg = small_config()
    pipeline = harness.fit_pipeline(cfg)
    fitted = []
    fit_surface = harness.fit_surface

    def spy(code, statistics, *args, **kwargs):
        surfaces = fit_surface(code, statistics, *args, **kwargs)
        fitted.append((sorted(statistics), [surface.statistic_id for surface in surfaces.values()]))
        return surfaces

    monkeypatch.setattr(harness, "fit_surface", spy)
    harness.run_pit_diagnostics(cfg, pipeline)
    # one call, given label 0's statistic alone, fits label 0's surface alone
    assert fitted == [([0], ["bayes-factor-0"])]


def test_gamma_sweep_rows_and_minimum():
    cfg = small_config(n_evaluation=20_000)
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e-2, 12), [0.06]])
    result = harness.gamma_sweep(cfg, alpha=0.05, gamma_grid=grid)
    assert len(result["rows"]) == len(grid)
    assert result["n_skipped"] == 1  # the 0.06 >= alpha entry
    zero_row = result["rows"][0]
    assert zero_row["x0_star"] == pytest.approx(X0_STAR_005, abs=1e-12)
    assert 1e-4 <= result["minimizing_gamma"] < 1e-2
    # the cutoff is not monotone in gamma: it dips and rises again
    active = [r["x0_star"] for r in result["rows"] if not r["skipped"]]
    best = min(active)
    assert active[0] > best and active[-1] > best
    # lower cutoff means higher power on class-1 events, up to noise
    by_cut = sorted(
        (r for r in result["rows"] if not r["skipped"]), key=lambda r: r["x0_star"]
    )
    assert by_cut[0]["power_y1"] >= by_cut[-1]["power_y1"] - 0.01


def test_gamma_sweep_requires_analytic():
    weights = (0.25, 0.25, 0.25, 0.25)
    prior = naps.PriorSpec(kind="discrete-weights", support=gm.DISCRETE_SPACE, weights=weights)
    cfg = harness.ExperimentConfig(
        scenario=gm.SCENARIO_DISCRETE,
        train_prior=prior,
        target_prior=prior,
        n_calibration=1000,
        n_evaluation=1000,
        alphas=(0.1,),
        methods=(harness.MethodSpec(name="naps", kind="naps"),),
        nu_bins=4,
        cutoff_grid_size=16,
        seed=1,
    )
    with pytest.raises(ConfigError):
        harness.gamma_sweep(cfg, 0.05, [1e-3])


def test_invariance_check_trivial_when_priors_match():
    cfg = small_config(target_prior=naps.uniform_prior(), n_calibration=100_000)
    result = harness.invariance_check(cfg, harness.fit_pipeline(cfg), min_cell_count=2000)
    assert result["max_sup_distance"] <= 0.05
    assert len(result["cells"]) == 2 * cfg.nu_bins


def test_invariance_check_skips_sparse_cells():
    cfg = small_config(n_calibration=50_000)
    result = harness.invariance_check(cfg, harness.fit_pipeline(cfg), min_cell_count=1000)
    populated = {(r["y"], r["bin"]) for r in result["cells"]}
    # the target prior concentrates near nu = 4; far cells must be skipped
    assert len(result["skipped"]) > 0
    assert all(r["n_target"] >= 1000 for r in result["cells"])
    assert populated  # near nu = 4 something survives


def test_invariance_check_detects_likelihood_violation():
    cfg = small_config(n_calibration=100_000)
    pipeline = harness.fit_pipeline(cfg)
    clean = harness.invariance_check(cfg, pipeline, min_cell_count=2000)
    broken = harness.invariance_check(cfg, pipeline, perturb_scale=1.5, min_cell_count=2000)
    assert broken["max_sup_distance"] > clean["max_sup_distance"]
    assert broken["max_sup_distance"] > 0.1


def reference_invariance(cfg, pipeline, x, min_cell_count):
    """Per-cell (n_target, sup-distance) of the target draw with observations ``x``, one mask, sort and search per cell.

    Returns the kept cells, ``{(y, bin): (n_target, sup_distance)}``, and the skipped ones, ``{(y, bin): n_target}``.
    """
    target = gm.sample_dataset(
        cfg.generative("target"), cfg.n_calibration, cfg.seed, stream_base=harness.STREAM_TARGET_CHECK
    )
    tau0 = score_dataset(pipeline.model, dataclasses.replace(target, x=x)).statistics[0][0]
    surface = pipeline.surfaces[0]
    cells = surface.binning.cell_index(target.nu)
    kept, skipped = {}, {}
    for y in (0, 1):
        for cell in range(surface.binning.n_cells):
            sel = tau0[(target.y == y) & (cells == cell)]
            if len(sel) < min_cell_count:
                skipped[y, cell] = len(sel)
                continue
            ecdf = np.searchsorted(np.sort(sel), surface.grid, side="right") / len(sel)
            kept[y, cell] = (len(sel), float(np.max(np.abs(ecdf - surface.values[y, cell]))))
    return kept, skipped


@pytest.mark.parametrize("perturb_scale", [None, 1.5], ids=["clean", "perturbed"])
def test_invariance_check_counts_each_cell_as_the_reference(monkeypatch, perturb_scale):
    cfg = small_config(n_calibration=50_000)
    pipeline = harness.fit_pipeline(cfg)
    scored = []
    posterior1 = naps.AnalyticMarginalClassifier.posterior1

    def spy(model, x):
        scored.append(x)
        return posterior1(model, x)

    monkeypatch.setattr(naps.AnalyticMarginalClassifier, "posterior1", spy)
    result = harness.invariance_check(cfg, pipeline, perturb_scale=perturb_scale, min_cell_count=1000)
    (x,) = scored  # the target observations, perturbed or not
    kept, skipped = reference_invariance(cfg, pipeline, x, 1000)
    assert kept and skipped  # the target prior concentrates near nu = 4, so far cells are skipped
    assert {(r["y"], r["bin"]): (r["n_target"], r["sup_distance"]) for r in result["cells"]} == kept
    assert {(r["y"], r["bin"]): r["n_target"] for r in result["skipped"]} == skipped
