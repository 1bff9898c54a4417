#!/usr/bin/env python3
"""Run the synthetic benchmark in both settings and print headline numbers.

Setting 1 keeps the target nuisance distribution equal to the training one
(uniform on [1, 10]); setting 2 shifts it to a truncated normal centered at
4 with sd 0.1. Standard prediction sets lose marginal coverage under the
shift; nuisance-aware sets do not, and constraining the nuisance via the
oracle quantile set buys power back.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import naps
from naps import harness


def build_config(target: str, args) -> harness.ExperimentConfig:
    target_prior = (
        naps.uniform_prior() if target == "uniform" else naps.truncated_gaussian_prior(4.0, 0.1)
    )
    return harness.ExperimentConfig(
        train_prior=naps.uniform_prior(),
        target_prior=target_prior,
        n_calibration=args.calibration,
        n_evaluation=args.evaluation,
        alphas=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
        methods=(
            harness.MethodSpec(name="naps", kind="naps"),
            harness.MethodSpec(
                name="naps-oracle",
                kind="naps",
                gamma_rule=harness.GammaRule("alpha-multiple", 0.01),
                provider="oracle-quantile",
            ),
            harness.MethodSpec(name="standard", kind="standard"),
            harness.MethodSpec(name="class-conditional", kind="class-conditional"),
            harness.MethodSpec(name="plug-in", kind="plug-in"),
            harness.MethodSpec(name="bayes-point", kind="bayes-point"),
        ),
        nu_bins=args.nu_bins,
        cutoff_grid_size=args.grid,
        seed=args.seed,
        output_dir=None,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/benchmark")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--calibration", type=int, default=200_000)
    parser.add_argument("--evaluation", type=int, default=50_000)
    parser.add_argument("--nu-bins", type=int, default=20)
    parser.add_argument("--grid", type=int, default=400)
    args = parser.parse_args()

    for setting, target in (("no_gls", "uniform"), ("gls", "shifted")):
        config = build_config(target, args)
        report = harness.run_experiment(config)
        report.to_json(os.path.join(args.out, f"report_{setting}.json"))
        report.write_long_table(os.path.join(args.out, f"report_{setting}_long.csv"))
        print(f"\n=== setting: {setting} (target nu ~ "
              f"{'U[1,10]' if target == 'uniform' else 'N(4, 0.1) truncated'}) ===")
        print(f"{'method':>18} {'alpha':>6} {'coverage':>9} {'power':>7} {'ambiguous':>9} {'empty':>6}")
        for name in sorted(report.data["methods"]):
            for alpha in (0.1, 0.2):
                m = report.method_alpha(name, alpha)["marginal"]
                print(
                    f"{name:>18} {alpha:>6} {m['coverage']:>9.4f} {m['power']:>7.4f} "
                    f"{m['ambiguity_rate']:>9.4f} {m['empty_rate']:>6.4f}"
                )
    print(f"\nreports written under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
