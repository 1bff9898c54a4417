"""Command-line interface.

Subcommands:

* ``simulate``    write calibration/evaluation datasets as delimited text
* ``fit``         fit the classifier and rejection surfaces, write artifacts
* ``evaluate``    run the experiment and write the metrics report
* ``diagnose``    write PIT goodness-of-fit tables
* ``sweep-gamma`` write the gamma power-sweep table

Exit codes: 0 success, 2 configuration error, 3 numeric error. Every
subcommand is byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import files, harness
from .errors import ConfigError, NumericError
from .harness import ExperimentConfig, Pipeline


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment configuration (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="naps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write datasets")
    _add_common(p)

    p = sub.add_parser("fit", help="fit classifier and rejection surfaces")
    _add_common(p)

    p = sub.add_parser("evaluate", help="run the experiment and write reports")
    _add_common(p)
    p.add_argument("--models", default=None, help="directory of fitted artifacts (skips refitting)")
    p.add_argument("--method", action="append", default=None, help="restrict to named methods (repeatable)")
    p.add_argument("--alpha", default=None, help="comma-separated miscoverage levels")
    p.add_argument("--gamma", default=None, help="gamma rule for NAPS methods: a number or 'alpha*<factor>'")
    p.add_argument("--dump-predictions", action="store_true", help="also write per-point prediction sets")

    p = sub.add_parser("diagnose", help="write PIT goodness-of-fit tables")
    _add_common(p)
    p.add_argument(
        "--param-bins", type=int, default=2, help="nuisance bins per label in the PIT table (continuous spaces only)"
    )

    p = sub.add_parser("sweep-gamma", help="write the gamma power-sweep table")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma-grid", default="1e-4:1e-2:30", help="log grid lo:hi:count")

    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json_file(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = args.out
    if getattr(args, "alpha", None) is not None and args.command == "evaluate":
        updates["alphas"] = tuple(_parse_float(a, "--alpha") for a in str(args.alpha).split(","))
    if getattr(args, "method", None):
        keep = set(args.method)
        methods = tuple(m for m in config.methods if m.name in keep)
        missing = keep - {m.name for m in methods}
        if missing:
            raise ConfigError(f"unknown method names: {sorted(missing)}")
        updates["methods"] = methods
    if getattr(args, "gamma", None) is not None:
        rule = _parse_gamma_rule(args.gamma)
        updates["methods"] = tuple(
            dataclasses.replace(m, gamma_rule=rule) if m.kind == "naps" else m
            for m in updates.get("methods", config.methods)
        )
    if updates:
        config = dataclasses.replace(config, **updates)
    if config.output_dir is None:
        raise ConfigError("no output directory: set output_dir in the config or pass --out")
    return config


def _parse_gamma_rule(text: str) -> harness.GammaRule:
    text = text.strip()
    kind = "alpha-multiple" if text.startswith("alpha*") else "fixed"
    return harness.GammaRule(kind=kind, value=_parse_float(text.removeprefix("alpha*"), "--gamma"))


def _parse_float(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"malformed {flag} value {text!r}: expected a number") from exc


def cmd_simulate(config: ExperimentConfig) -> None:
    out = config.output_dir
    config.calibration_set().save(os.path.join(out, "calibration.csv"))
    config.evaluation_set().save(os.path.join(out, "evaluation.csv"))
    if config.classifier == "histogram":
        config.train_set().save(os.path.join(out, "train.csv"))


def cmd_fit(config: ExperimentConfig) -> None:
    pipeline = harness.fit_pipeline(config)
    pipeline.save(config.output_dir)


def cmd_evaluate(config: ExperimentConfig, models: str | None, dump_predictions: bool) -> None:
    dump_spec = _first_naps_method(config) if dump_predictions else None
    pipeline = Pipeline.load(models, config=config) if models else None
    report, pipeline, evaluation = harness._run_scored(config, pipeline)
    out = config.output_dir
    report.to_json(os.path.join(out, "report.json"))
    report.write_long_table(os.path.join(out, "report_long.csv"))
    if dump_spec is not None:
        # the first alpha, on the evaluation set the report scored
        alpha = config.alphas[0]
        clf = harness.naps_cutoffs_for_alpha(pipeline, config, dump_spec, alpha)
        clf.decide(evaluation.data.x, evaluation.statistics, alpha).save(os.path.join(out, "naps_predictions.csv"))


def _first_naps_method(config: ExperimentConfig) -> harness.MethodSpec:
    for spec in config.methods:
        if spec.kind == "naps":
            return spec
    raise ConfigError("--dump-predictions needs a NAPS method in the configuration")


def cmd_diagnose(config: ExperimentConfig, param_bins: int) -> None:
    if param_bins < 1:
        raise ConfigError(f"--param-bins must be at least 1, got {param_bins}")
    result = harness.run_pit_diagnostics(config, harness.fit_pipeline(config), n_param_bins=param_bins)
    out = config.output_dir
    files.write_json(os.path.join(out, "pit.json"), result)
    rows = [{"surface": name, **row} for name in ("nuisance_aware", "nuisance_ignoring") for row in result[name]]
    header = ("surface", "bin", "n", "ks_distance", "ks_band", "within_band", "skipped")
    files.write_table(os.path.join(out, "pit_bins.csv"), header, None, [[r[k] for r in rows] for k in header])


def cmd_sweep_gamma(config: ExperimentConfig, alpha: float, grid_spec: str) -> None:
    try:
        lo, hi, count = grid_spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        grid = np.geomspace(lo, hi, count)
    except ValueError as exc:
        raise ConfigError(f"malformed --gamma-grid {grid_spec!r}: expected lo:hi:count") from exc
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and count >= 1):
        raise ConfigError(f"--gamma-grid {grid_spec!r}: its bounds must be finite and positive, its count at least 1")
    result = harness.gamma_sweep(config, alpha, grid)
    out = config.output_dir
    files.write_json(os.path.join(out, "gamma_sweep.json"), result)
    # skipped entries are warned about and kept in the JSON
    rows = [r for r in result["rows"] if not r["skipped"]]
    header = ("gamma", "x0_star", "x1_star", "arg_nu", "power_y1", "power_y0")
    files.write_table(os.path.join(out, "gamma_sweep.csv"), header, None, [[r[k] for r in rows] for k in header])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; pass that through
        return int(exc.code or 0)
    try:
        config = _load_config(args)
        if args.command == "simulate":
            cmd_simulate(config)
        elif args.command == "fit":
            cmd_fit(config)
        elif args.command == "evaluate":
            cmd_evaluate(config, args.models, args.dump_predictions)
        elif args.command == "diagnose":
            cmd_diagnose(config, args.param_bins)
        else:  # sweep-gamma: argparse enforces the choices
            cmd_sweep_gamma(config, args.alpha, args.gamma_grid)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
