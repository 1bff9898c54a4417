import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import naps
from naps import cli, files, harness
from naps.cutoffs import CutoffRequest, cutoff_for_region
from naps.errors import NumericError
from naps.nuisance import full_space_set


@pytest.fixture()
def config_path(tmp_path):
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=20_000,
        n_evaluation=4_000,
        alphas=(0.1, 0.2),
        nu_bins=10,
        cutoff_grid_size=100,
        seed=9,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(files.jsonable(cfg), indent=2, sort_keys=True))
    return str(path)


def read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def run(argv):
    return cli.main(argv)


def src_env():
    """The environment with this checkout's ``src`` first on the module path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_simulate_reproducible(config_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["simulate", "--config", config_path, "--out", out1]) == 0
    assert run(["simulate", "--config", config_path, "--out", out2]) == 0
    a, b = read_all(out1), read_all(out2)
    assert set(a) == {"calibration.csv", "evaluation.csv"}
    assert a == b


def test_fit_then_evaluate_with_models(config_path, tmp_path):
    models = str(tmp_path / "models")
    assert run(["fit", "--config", config_path, "--out", models]) == 0
    assert set(os.listdir(models)) == {"classifier.json", "surface_bf0.json", "surface_bf1.json"}
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert run(["evaluate", "--config", config_path, "--out", out1, "--models", models]) == 0
    assert run(["evaluate", "--config", config_path, "--out", out2]) == 0
    a, b = read_all(out1), read_all(out2)
    # refit and loaded artifacts give byte-identical reports
    assert a["report.json"] == b["report.json"]
    assert a["report_long.csv"] == b["report_long.csv"]
    report = json.loads(a["report.json"])
    assert set(report["methods"]) == {"naps", "naps-oracle", "standard", "class-conditional"}


def test_evaluate_method_and_alpha_flags(config_path, tmp_path):
    out = str(tmp_path / "r")
    code = run(
        [
            "evaluate", "--config", config_path, "--out", out,
            "--method", "naps", "--alpha", "0.1", "--gamma", "0.0",
        ]
    )
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert list(report["methods"]) == ["naps"]
    assert list(report["methods"]["naps"]["alphas"]) == ["0.1"]


def test_full_space_method_inverts_at_alpha_minus_gamma(config_path, tmp_path):
    # the rule's gamma reaches the full-space provider, and the report reads it there
    out = str(tmp_path / "r")
    assert run(["evaluate", "--config", config_path, "--out", out, "--method", "naps", "--gamma", "alpha*0.01"]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    config = harness.ExperimentConfig.from_json_file(config_path)
    pipeline = harness.fit_pipeline(config)
    region = full_space_set(config.train_prior.support)
    moved = False
    for alpha in config.alphas:
        table = report["methods"]["naps"]["alphas"][repr(alpha)]
        gamma = 0.01 * alpha
        assert table["gamma"] == gamma
        for y in (0, 1):
            surface = pipeline.surfaces[y]
            assert table[f"cutoff{y}"] == cutoff_for_region(surface, region, CutoffRequest(y, alpha, gamma)).cutoff
            moved |= table[f"cutoff{y}"] != cutoff_for_region(surface, region, CutoffRequest(y, alpha)).cutoff
    assert moved  # gamma 0 would give other cutoffs


def test_evaluate_dump_predictions(config_path, tmp_path):
    out = str(tmp_path / "r")
    assert run(["evaluate", "--config", config_path, "--out", out, "--dump-predictions"]) == 0
    lines = open(os.path.join(out, "naps_predictions.csv")).read().splitlines()
    assert lines[0].startswith("x,statistic0,statistic1")
    assert len(lines) == 4000 + 1


def test_evaluate_dump_predictions_discrete_toy(tmp_path):
    # vector observations: one column per count
    protocols = {"kind": "discrete-set", "categories": [0, 1, 2, 3]}
    cfg = {
        "scenario": "discrete-toy",
        "class1_probability": 0.5,
        "train_prior": {"kind": "discrete-weights", "weights": [0.25] * 4, "support": protocols},
        "target_prior": {"kind": "discrete-weights", "weights": [0.05, 0.05, 0.1, 0.8], "support": protocols},
        "n_calibration": 8_000,
        "n_evaluation": 1_000,
        "alphas": [0.1],
        "methods": [{"name": "naps", "kind": "naps"}],
        "seed": 3,
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "r")
    assert run(["evaluate", "--config", str(path), "--out", out, "--dump-predictions"]) == 0
    lines = open(os.path.join(out, "naps_predictions.csv")).read().splitlines()
    assert lines[0].startswith("x1,x2,x3,x4,x5,x6,x7,x8,statistic0,statistic1")
    assert len(lines) == cfg["n_evaluation"] + 1
    assert all(len(line.split(",")) == 8 + 6 for line in lines)


def test_evaluate_dump_fits_once_with_the_method_provider(config_path, tmp_path, monkeypatch):
    fits = []
    real_fit = harness._fit
    monkeypatch.setattr(cli.harness, "_fit", lambda config, cal: fits.append(config) or real_fit(config, cal))
    out = str(tmp_path / "r")
    argv = ["evaluate", "--config", config_path, "--out", out, "--dump-predictions", "--method", "naps-oracle"]
    assert run(argv) == 0
    assert len(fits) == 1
    # the dump is the configured method at the first alpha: its cutoffs are the report's
    report = json.loads(open(os.path.join(out, "report.json")).read())
    table = report["methods"]["naps-oracle"]["alphas"]["0.1"]
    row = open(os.path.join(out, "naps_predictions.csv")).read().splitlines()[1].split(",")
    assert (float(row[3]), float(row[4])) == (table["cutoff0"], table["cutoff1"])


def test_evaluate_dump_without_naps_method_exits_2(config_path, tmp_path):
    out = str(tmp_path / "r")
    argv = ["evaluate", "--config", config_path, "--out", out, "--dump-predictions", "--method", "standard"]
    assert run(argv) == 2
    assert not os.path.exists(os.path.join(out, "naps_predictions.csv"))


def test_diagnose_outputs(config_path, tmp_path):
    out = str(tmp_path / "d")
    assert run(["diagnose", "--config", config_path, "--out", out]) == 0
    payload = json.loads(open(os.path.join(out, "pit.json")).read())
    assert len(payload["nuisance_aware"]) == 4
    assert len(payload["nuisance_ignoring"]) == 4
    lines = open(os.path.join(out, "pit_bins.csv")).read().splitlines()
    assert len(lines) == 1 + 8


def test_sweep_gamma_row_count(config_path, tmp_path):
    out = str(tmp_path / "s")
    code = run(
        ["sweep-gamma", "--config", config_path, "--out", out, "--alpha", "0.05",
         "--gamma-grid", "1e-4:1e-1:12"]
    )
    assert code == 0
    payload = json.loads(open(os.path.join(out, "gamma_sweep.json")).read())
    assert len(payload["rows"]) == 12
    skipped = payload["n_skipped"]
    assert skipped > 0  # grid extends past alpha
    lines = open(os.path.join(out, "gamma_sweep.csv")).read().splitlines()
    assert len(lines) == 1 + 12 - skipped


def test_sweep_gamma_reproducible(config_path, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = str(tmp_path / name)
        assert run(["sweep-gamma", "--config", config_path, "--out", out]) == 0
        outs.append(read_all(out))
    assert outs[0] == outs[1]


def test_missing_config_exits_2(tmp_path, capsys):
    code = run(["evaluate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"scenario\": \"analytic-exponential\"}")
    assert run(["evaluate", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_2(config_path):
    assert run(["simulate", "--config", config_path, "--frob"]) == 2


def test_unknown_method_exits_2(config_path, tmp_path):
    code = run(["evaluate", "--config", config_path, "--out", str(tmp_path), "--method", "nope"])
    assert code == 2


WIDE_SPACE = {"kind": "continuous-interval", "bounds": [0.5, 20.0]}
NU = {"kind": "continuous-interval", "bounds": [1.0, 10.0]}


@pytest.mark.parametrize(
    "argv, changes",
    [
        (["evaluate", "--alpha", "0.1,abc"], {}),
        (["evaluate", "--gamma", "abc"], {}),
        (["evaluate", "--gamma", "alpha*abc"], {}),
        (["evaluate"], {"methods": ["naps"]}),
        (["evaluate"], {"methods": [{"kind": "naps", "gamma_rule": "abc"}]}),
        (["sweep-gamma", "--alpha", "1.5"], {}),
        (["sweep-gamma", "--gamma-grid", "1e-4:inf:3"], {}),
        (["sweep-gamma", "--gamma-grid", "nan:1e-2:3"], {}),
        (["sweep-gamma", "--gamma-grid=-1e-2:-1e-4:3"], {}),
        (["simulate"], {"train_prior": {"kind": "uniform", "support": WIDE_SPACE}}),
        (["fit"], {"train_prior": {"kind": "uniform", "support": WIDE_SPACE}}),
        (["evaluate"], {"train_prior": {"kind": "uniform", "support": {**WIDE_SPACE, "bounds": [5]}}}),
        (["evaluate"], {"train_prior": {"kind": "uniform", "support": {**WIDE_SPACE, "bounds": [1, 5, 9]}}}),
        (["evaluate"], {"methods": [{"kind": "bayes-point", "costs": ["a", 1]}]}),
        (["evaluate"], {"methods": [{"kind": "bayes-point", "costs": [1]}]}),
        (["evaluate"], {"methods": [{"kind": "bayes-point", "costs": [-1, 1]}]}),
        (["evaluate"], {"target_prior": {"kind": "truncated-gaussian", "mean": 4.0, "sd": "1e400", "support": NU}}),
        (["evaluate"], {"target_prior": {"kind": "truncated-gaussian", "mean": 4.0, "sd": math.nan, "support": NU}}),
        (["evaluate"], {"target_prior": {"kind": "truncated-gaussian", "mean": 4.0, "sd": math.inf, "support": NU}}),
        (["evaluate"], {"n_calibration": 4000.0}),
        (["evaluate"], {"n_evaluation": True}),
        (["evaluate"], {"nu_bins": "20"}),
        (["evaluate"], {"nu_bins": 20.0}),
        (["evaluate"], {"class1_probability": "0.5"}),
        (["evaluate"], {"cutoff_grid_size": "200"}),
        (["evaluate"], {"seed": 1.5}),
        (["evaluate"], {"methods": [{"kind": "naps", "gama_rule": 0.01}]}),
        (["evaluate"], {"methods": [{"kind": "naps", "gamma_rule": 0.01}]}),
        (["evaluate"], {"train_prior": {"kind": "uniform", "sd": 3, "support": NU}}),
        (["evaluate"], {"methods": {}}),
        (["evaluate"], {"methods": []}),
        (["evaluate"], {"class1_probability": 1.0}),
        (["fit"], {"class1_probability": 0.0}),
    ],
    ids=[
        "alpha-list", "gamma", "gamma-factor", "method-not-object", "gamma-rule-string",
        "sweep-alpha", "sweep-infinite-grid", "sweep-nan-grid", "sweep-negative-grid", "simulate-wide-space",
        "fit-wide-space", "one-bound", "three-bounds",
        "costs-string", "one-cost", "negative-cost", "sd-overflow", "sd-nan", "sd-infinity",
        "float-size", "bool-size", "string-bins", "float-bins", "string-probability", "string-grid-size",
        "float-seed", "misspelt-key", "gamma-rule-number", "foreign-prior-parameter", "methods-object",
        "no-methods", "one-class-1", "one-class-0",
    ],
)
def test_malformed_input_exits_2_without_traceback(config_path, tmp_path, argv, changes):
    refused_stderr(config_path, tmp_path, argv, changes)


def refused_stderr(config_path, tmp_path, argv, changes):
    """The stderr of ``naps <argv>`` in a fresh interpreter on the config with ``changes``, which must exit 2 unwritten."""
    cfg = json.loads(open(config_path).read())
    cfg.update(changes)
    path = tmp_path / "config.json"
    # json.dumps writes NaN and Infinity literals; the string "1e400" stands for that number literal
    path.write_text(json.dumps(cfg).replace('"1e400"', "1e400"))
    command = [sys.executable, "-m", "naps.cli", argv[0], "--config", str(path), "--out", str(tmp_path / "o")]
    proc = subprocess.run(command + argv[1:], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "o")  # refused before anything is written
    return proc.stderr


@pytest.mark.parametrize(
    "argv, changes, named",
    [
        (["fit"], {"nu_bins": -3}, "nu_bins"),
        (["simulate"], {"nu_bins": 0}, "nu_bins"),
        (["simulate"], {"report_nu_bins": 0}, "report_nu_bins"),
        (["simulate"], {"histogram_bins": 0}, "histogram_bins"),
        (["simulate"], {"cutoff_grid_size": 1}, "cutoff_grid_size"),
        (["diagnose", "--param-bins", "-3"], {}, "--param-bins"),
        (["diagnose", "--param-bins", "0"], {}, "--param-bins"),
        (["sweep-gamma", "--gamma-grid", "1e-4:1e-2:0"], {}, "--gamma-grid"),
        (["evaluate", "--gamma", "nan"], {}, "gamma rule value"),
        (["evaluate", "--alpha", "0.1,0.1,0.10000000000000001", "--method", "naps"], {}, "alphas"),
    ],
    ids=[
        "fit-negative-nu-bins", "no-nu-bins", "no-report-bins", "no-histogram-bins", "one-grid-cutoff",
        "negative-param-bins", "no-param-bins", "empty-gamma-grid", "nan-gamma", "repeated-alpha",
    ],
)
def test_bad_count_or_gamma_exits_2_naming_it(config_path, tmp_path, argv, changes, named):
    assert named in refused_stderr(config_path, tmp_path, argv, changes)


def test_point_mass_target_gives_one_point_region(config_path, tmp_path):
    cfg = json.loads(open(config_path).read())
    cfg["target_prior"] = {"kind": "point-mass", "value": 4.0, "support": NU}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["evaluate", "--config", str(path), "--out", str(out), "--method", "naps-oracle"]) == 0
    report = json.loads((out / "report.json").read_text())
    for table in report["methods"]["naps-oracle"]["alphas"].values():
        assert table["nuisance_regions"]["0"] == {"categories": [], "intervals": [[4.0, 4.0]]}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def test_cli_files_are_well_formed(config_path, tmp_path):
    # few evaluation points and many PIT bins: some report cells are empty and some PIT bins are skipped
    cfg = json.loads(open(config_path).read())
    cfg["n_evaluation"] = 200
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    commands = (["simulate"], ["evaluate", "--dump-predictions"], ["diagnose", "--param-bins", "200"], ["sweep-gamma"])
    for argv in commands:
        assert run([argv[0], "--config", str(path), "--out", str(out / argv[0]), *argv[1:]]) == 0
    written = {os.path.relpath(os.path.join(d, f), out) for d, _, names in os.walk(out) for f in names}
    assert written == {
        "simulate/calibration.csv", "simulate/evaluation.csv", "evaluate/report.json", "evaluate/report_long.csv",
        "evaluate/naps_predictions.csv", "diagnose/pit.json", "diagnose/pit_bins.csv",
        "sweep-gamma/gamma_sweep.json", "sweep-gamma/gamma_sweep.csv",
    }
    tables = {}
    for name in written:
        text = (out / name).read_text()
        if name.endswith(".json"):
            json.loads(text, parse_constant=_reject_constant)
            continue
        rows = list(csv.reader(text.splitlines()))
        assert all(len(row) == len(rows[0]) for row in rows), name
        tables[name] = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert {r["segment"] for r in tables["evaluate/report_long.csv"]} >= {"y=0,bin=9", "y=1,bin=0"}
    assert any(r["value"] == "" for r in tables["evaluate/report_long.csv"])
    skipped = [r for r in tables["diagnose/pit_bins.csv"] if r["skipped"] == "True"]
    assert skipped and all(r["ks_distance"] == r["ks_band"] == r["within_band"] == "" for r in skipped)
    assert tables["diagnose/pit_bins.csv"][0]["bin"] == "y=0,nu=[1,1.045)"


def test_missing_model_artifacts_exit_2(config_path, tmp_path):
    code = run(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"),
                "--models", str(tmp_path)])
    assert code == 2


def _truncate(path):
    data = open(path, "rb").read()
    open(path, "wb").write(data[:300])


def _drop_grid(path):
    data = json.loads(open(path).read())
    del data["grid"]
    open(path, "w").write(json.dumps(data))


def _unsort_grid(path):
    data = json.loads(open(path).read())
    data["grid"][0], data["grid"][1] = data["grid"][1], data["grid"][0]
    open(path, "w").write(json.dumps(data))


def _nan_value(path):
    data = json.loads(open(path).read())
    data["values"][0][0][0] = float("nan")
    open(path, "w").write(json.dumps(data))


def _dip_1e_13(path):
    # a decrease far below any count's resolution is still a decrease
    data = json.loads(open(path).read())
    row = data["values"][0][0]
    row[0] = row[1] + 1e-13
    open(path, "w").write(json.dumps(data))


@pytest.mark.parametrize(
    "corrupt",
    [_truncate, _drop_grid, _unsort_grid, _nan_value, _dip_1e_13],
    ids=["truncated", "no-grid", "unsorted-grid", "nan-value", "dip-1e-13"],
)
def test_malformed_model_artifact_exits_2(config_path, tmp_path, capsys, corrupt):
    models = str(tmp_path / "models")
    assert run(["fit", "--config", config_path, "--out", models]) == 0
    corrupt(os.path.join(models, "surface_bf0.json"))
    capsys.readouterr()
    code = run(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"), "--models", models])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "surface_bf0.json" in err


@pytest.mark.parametrize(
    "change",
    [
        {"bin_posterior": [2.0]}, {"class1_prior": "0.5"}, {"kind": "analytic-marginal"}, {"bogus": 1},
        {"class1_prior": 0.0},
    ],
    ids=["posterior-above-1", "string-prior", "wrong-kind", "unknown-key", "one-class-prior"],
)
def test_malformed_histogram_artifact_exits_2(config_path, tmp_path, capsys, change):
    cfg = json.loads(open(config_path).read())
    cfg.update(classifier="histogram", n_train=20_000)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    models = tmp_path / "models"
    assert run(["fit", "--config", str(path), "--out", str(models)]) == 0
    artifact = models / "classifier.json"
    artifact.write_text(json.dumps({**json.loads(artifact.read_text()), **change}))
    capsys.readouterr()
    code = run(["evaluate", "--config", str(path), "--out", str(tmp_path / "o"), "--models", str(models)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "classifier.json" in err


def assert_evaluate_refuses(config_path, tmp_path, models, named):
    """``naps evaluate --models`` in a new interpreter exits 2 naming the file ``named``, with no traceback."""
    command = [sys.executable, "-m", "naps.cli", "evaluate", "--config", config_path, "--out", str(tmp_path / "o")]
    proc = subprocess.run(command + ["--models", str(models)], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_one_class_analytic_artifact_exits_2_without_traceback(config_path, tmp_path):
    # 1 is a valid generative probability, but both labels' Bayes factors need a class prior inside (0, 1)
    models = tmp_path / "models"
    assert run(["fit", "--config", config_path, "--out", str(models)]) == 0
    artifact = models / "classifier.json"
    data = json.loads(artifact.read_text())
    data["config"]["class1_probability"] = 1.0
    artifact.write_text(json.dumps(data))
    assert_evaluate_refuses(config_path, tmp_path, models, "classifier.json")


def test_swapped_surfaces_exit_2(config_path, tmp_path):
    models = tmp_path / "models"
    assert run(["fit", "--config", config_path, "--out", str(models)]) == 0
    bf0, bf1 = models / "surface_bf0.json", models / "surface_bf1.json"
    label0 = bf0.read_text()
    bf0.write_text(bf1.read_text())
    bf1.write_text(label0)
    assert_evaluate_refuses(config_path, tmp_path, models, "surface_bf0.json")


def test_surfaces_on_different_binnings_exit_2(config_path, tmp_path):
    models, coarse = tmp_path / "models", tmp_path / "coarse"
    assert run(["fit", "--config", config_path, "--out", str(models)]) == 0
    cfg = json.loads(open(config_path).read())
    cfg["nu_bins"] = 5
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    assert run(["fit", "--config", str(path), "--out", str(coarse)]) == 0
    (models / "surface_bf1.json").write_text((coarse / "surface_bf1.json").read_text())
    assert_evaluate_refuses(config_path, tmp_path, models, "surface_bf1.json")


def test_surfaces_from_two_calibration_sets_exit_2(config_path, tmp_path):
    models, other = tmp_path / "models", tmp_path / "other"
    assert run(["fit", "--config", config_path, "--out", str(models)]) == 0
    assert run(["fit", "--config", config_path, "--seed", "11", "--out", str(other)]) == 0
    (models / "surface_bf1.json").write_text((other / "surface_bf1.json").read_text())
    assert_evaluate_refuses(config_path, tmp_path, models, "surface_bf1.json")


def test_models_fitted_under_another_config_exit_2(config_path, tmp_path):
    # fitted on 5 nu bins under a N(5, 2) training prior, evaluated under 10 bins and a uniform prior
    cfg = json.loads(open(config_path).read())
    cfg.update(nu_bins=5, train_prior=files.jsonable(naps.truncated_gaussian_prior(5.0, 2.0)))
    path, models = tmp_path / "other.json", tmp_path / "models"
    path.write_text(json.dumps(cfg))
    assert run(["fit", "--config", str(path), "--out", str(models)]) == 0
    assert_evaluate_refuses(config_path, tmp_path, models, "surface_bf0.json")


@pytest.mark.parametrize("changes", [{"seed": 11}, {"n_calibration": 2_000}], ids=["seed", "n-calibration"])
def test_models_fitted_on_another_calibration_set_exit_2(config_path, tmp_path, changes):
    # the report would echo a seed or a calibration size that the surfaces were not fitted on
    models = tmp_path / "models"
    assert run(["fit", "--config", config_path, "--out", str(models)]) == 0
    path = tmp_path / "other.json"
    path.write_text(json.dumps({**json.loads(open(config_path).read()), **changes}))
    assert_evaluate_refuses(str(path), tmp_path, models, "surface_bf0.json")
    assert not os.path.exists(tmp_path / "o")


def test_models_fitted_at_another_grid_size_exit_2(config_path, tmp_path):
    # the report would echo a cutoff grid size that the surfaces were not fitted at
    cfg = json.loads(open(config_path).read())
    fitted, evaluated, models = tmp_path / "fitted.json", tmp_path / "evaluated.json", tmp_path / "models"
    fitted.write_text(json.dumps({**cfg, "cutoff_grid_size": 400}))
    evaluated.write_text(json.dumps({**cfg, "cutoff_grid_size": 50}))
    assert run(["fit", "--config", str(fitted), "--out", str(models)]) == 0
    assert_evaluate_refuses(str(evaluated), tmp_path, models, "surface_bf0.json")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "fitted, evaluated",
    [
        ({"train_prior": files.jsonable(naps.truncated_gaussian_prior(5.0, 2.0))}, {}),
        ({"classifier": "histogram", "n_train": 20_000}, {}),
        ({}, {"classifier": "histogram", "n_train": 20_000}),
        ({"classifier": "histogram", "n_train": 20_000, "histogram_bins": 32}, {"classifier": "histogram"}),
        (
            {"classifier": "histogram", "n_train": 20_000,
             "train_prior": files.jsonable(naps.truncated_gaussian_prior(5.0, 2.0))},
            {"classifier": "histogram", "n_train": 20_000},
        ),
        ({"classifier": "histogram", "n_train": 2_000}, {"classifier": "histogram", "n_train": 20_000}),
    ],
    ids=["training-prior", "histogram-not-analytic", "analytic-not-histogram", "histogram-bins",
         "histogram-training-prior", "histogram-n-train"],
)
def test_classifier_fitted_under_another_config_exits_2(config_path, tmp_path, capsys, fitted, evaluated):
    base = json.loads(open(config_path).read())
    paths = {}
    for name, changes in (("fitted", fitted), ("evaluated", evaluated)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**base, **changes}))
    models = str(tmp_path / "models")
    assert run(["fit", "--config", str(paths["fitted"]), "--out", models]) == 0
    capsys.readouterr()
    code = run(["evaluate", "--config", str(paths["evaluated"]), "--out", str(tmp_path / "o"), "--models", models])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "classifier.json" in err
    assert not os.path.exists(tmp_path / "o")


def test_numeric_error_exits_3(config_path, tmp_path, monkeypatch, capsys):
    def boom(config, pipeline=None):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli.harness, "_run_scored", boom)
    code = run(["evaluate", "--config", config_path, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def _evaluate_with_quad_tol(config_path, tmp_path, capsys, quad_tol):
    models = str(tmp_path / "models")
    assert run(["fit", "--config", config_path, "--out", models]) == 0
    path = os.path.join(models, "classifier.json")
    data = json.loads(open(path).read())
    data["quad_tol"] = quad_tol
    open(path, "w").write(json.dumps(data))
    capsys.readouterr()
    code = run(["evaluate", "--config", config_path, "--out", str(tmp_path / "o"), "--models", models])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("quad_tol", [-1.0, 0.0])
def test_invalid_quad_tol_artifact_exits_2(config_path, tmp_path, capsys, quad_tol):
    code, err = _evaluate_with_quad_tol(config_path, tmp_path, capsys, quad_tol)
    assert code == 2
    assert "configuration error" in err and "quad_tol" in err and "classifier.json" in err


def test_unreachable_quad_tol_exits_3(config_path, tmp_path, capsys):
    # the real check, not a patched one: no two float rules agree to 1e-20
    code, err = _evaluate_with_quad_tol(config_path, tmp_path, capsys, 1e-20)
    assert code == 3
    assert "numeric error" in err


def test_seed_override_changes_outputs(config_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["simulate", "--config", config_path, "--out", out1, "--seed", "1"]) == 0
    assert run(["simulate", "--config", config_path, "--out", out2, "--seed", "2"]) == 0
    assert read_all(out1) != read_all(out2)


def run_cli_in_fresh_interpreter(tmp_path, cfg, commands, unloaded):
    """Run ``naps <command> --config ... --out tmp_path/<command>`` for each command in one
    new interpreter, then check that none of the ``unloaded`` modules was imported."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(files.jsonable(cfg)))
    code = "import sys\nimport naps.cli\n" + "".join(
        f"assert naps.cli.main([{c!r}, '--config', {str(path)!r}, '--out', {str(tmp_path / c)!r}]) == 0\n"
        for c in commands
    ) + f"loaded = {set(unloaded)!r} & set(sys.modules)\nassert not loaded, loaded\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_scipy_stats(tmp_path):
    # scipy.stats, scipy.integrate and scipy.optimize each cost over half a second of
    # every command's start-up; fit evaluates the posterior, simulate only draws
    cfg = harness.ExperimentConfig(
        train_prior=naps.truncated_gaussian_prior(5.0, 2.0),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=2_000,
        n_evaluation=100,
        nu_bins=2,
        seed=3,
    )
    run_cli_in_fresh_interpreter(
        tmp_path, cfg, ["simulate", "fit"], {"scipy.stats", "scipy.integrate", "scipy.optimize"}
    )
    sim, models = tmp_path / "simulate", tmp_path / "fit"
    assert sorted(os.listdir(sim)) == ["calibration.csv", "evaluation.csv"]
    assert sorted(os.listdir(models)) == ["classifier.json", "surface_bf0.json", "surface_bf1.json"]


def test_uniform_train_fit_and_diagnose_never_load_scipy_special(tmp_path):
    # scipy.special serves only the truncated Gaussian and the discrete toy
    cfg = harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=naps.truncated_gaussian_prior(4.0, 0.1),
        n_calibration=2_000,
        n_evaluation=500,
        nu_bins=2,
        seed=3,
    )
    run_cli_in_fresh_interpreter(tmp_path, cfg, ["fit", "diagnose"], {"scipy.special"})
    assert sorted(os.listdir(tmp_path / "fit")) == ["classifier.json", "surface_bf0.json", "surface_bf1.json"]
